"""Randomized invariant checks behind the `check` command.

Each check draws its own samples from a seeded generator and reports
{"name", "ok", "detail"}.  These are sanity sweeps over laws the library
relies on, meant to be cheap enough to run interactively; the heavier
exhaustive arguments live in the test suite.  Draws go through size.draws,
trial by trial, so a suite reads the same generator words whether it
passes or fails.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .colimit import Diagram, subdiagram_colimit
from .errors import (
    BudgetExceeded,
    IllTypedArrow,
    IntegrityError,
    NonFunctorialDiagram,
)
from .finset import FiniteFn, FiniteSet
from .functors import FunctorExpr, eval_functor, eval_functor_mor, expr_arity
from .size import draws, filtered_sample_check, height


def _fail(name: str, detail: str) -> Dict:
    return {"name": name, "ok": False, "detail": detail}


def _pass(name: str, detail: str) -> Dict:
    return {"name": name, "ok": True, "detail": detail}


def check_order_laws(backend, rng: random.Random, samples: int, depth: int) -> Dict:
    name = "order-laws"
    indices = backend.sample_indices(rng, max(samples, 3), depth)
    lt, leq, bottom = backend.lt, backend.leq, backend.bottom()
    for i in indices:
        if lt(i, i):
            return _fail(name, f"strict order is reflexive at {backend.render(i)}")
        if not leq(i, i):
            return _fail(name, f"lax order is irreflexive at {backend.render(i)}")
        if not leq(bottom, i):
            return _fail(name, f"bottom above {backend.render(i)}")
        if not lt(i, backend.succ(i)):
            return _fail(name, f"successor not above {backend.render(i)}")
    n = len(indices)
    for _ in range(samples):
        x, y, z = draws(rng, n, 3)
        a, b, c = indices[x], indices[y], indices[z]
        # each order on each of the three pairs, once
        lt_ab, leq_ab = lt(a, b), leq(a, b)
        lt_bc, leq_bc = lt(b, c), leq(b, c)
        lt_ac, leq_ac = lt(a, c), leq(a, c)
        if lt_ab and not leq_ab:
            return _fail(name, "strict without lax")
        if lt_ab and leq_bc and not lt_ac:
            return _fail(name, "lt;leq not strict")
        if leq_ab and lt_bc and not lt_ac:
            return _fail(name, "leq;lt not strict")
        if leq_ab and leq_bc and not leq_ac:
            return _fail(name, "lax order not transitive")
        height_a, height_b = height(a), height(b)
        if lt_ab != (height_a < height_b):
            return _fail(name, "strict order disagrees with rank")
        if leq_ab != (height_a <= height_b):
            return _fail(name, "lax order disagrees with rank")
    return _pass(name, f"{samples} triples over {len(indices)} indices")


def check_join_bounds(backend, rng: random.Random, samples: int, depth: int) -> Dict:
    name = "join-bounds"
    indices = backend.sample_indices(rng, max(samples, 2), depth)
    n, leq = len(indices), backend.leq
    for _ in range(samples):
        x, y = draws(rng, n, 2)
        a, b = indices[x], indices[y]
        j = backend.join(a, b)
        if not (leq(a, j) and leq(b, j)):
            return _fail(
                name,
                f"join of {backend.render(a)} and {backend.render(b)} not an upper bound",
            )
    return _pass(name, f"{samples} pairs")


def check_filtered(backend, rng: random.Random, samples: int, depth: int) -> Dict:
    name = "filtered-bounds"
    indices = backend.sample_indices(rng, max(samples, 4), depth)
    # a family is indexed by the arity of an operation of the base
    # signature; without operations (nat, bare plump) its width is free
    ops, n = backend.base.ops.size, len(indices)
    drawn = []
    for _ in range(samples):
        if ops:
            (op,) = draws(rng, ops, 1)
            width = backend.base.arities[op].size
        else:
            op, (width,) = 0, draws(rng, 4, 1)
        family = tuple(indices[k] for k in draws(rng, n, width))
        drawn.append((op, family))
    ok, _ = filtered_sample_check(backend, drawn)
    if not ok:
        return _fail(name, "some sampled family had no strict upper bound")
    return _pass(name, f"{samples} families bounded")


def check_basis(backend, rng: random.Random, samples: int, depth: int) -> Dict:
    name = "predecessor-basis"
    indices = backend.sample_indices(rng, max(samples, 2), depth)
    for i in indices:
        for b in backend.predecessor_basis(i):
            if not backend.lt(b, i):
                return _fail(
                    name,
                    f"basis member {backend.render(b)} not below {backend.render(i)}",
                )
    return _pass(name, f"{len(indices)} indices")


def _random_fn(rng: random.Random, dom: FiniteSet, cod: FiniteSet) -> FiniteFn:
    table = tuple(draws(rng, cod.size, dom.size))
    return FiniteFn(dom, cod, table)


def check_functor_laws(
    label: str, expr: FunctorExpr, rng: random.Random, samples: int, depth: int
) -> Dict:
    name = f"functor-laws[{label}]"
    arity = expr_arity(expr)
    trials = 0
    for _ in range(samples):
        sizes_a = tuple(draws(rng, depth + 1, arity))
        sizes_b = tuple(n + 1 for n in draws(rng, max(depth, 1), arity))
        sizes_c = tuple(n + 1 for n in draws(rng, max(depth, 1), arity))
        xs = tuple(FiniteSet(n) for n in sizes_a)
        ys = tuple(FiniteSet(n) for n in sizes_b)
        zs = tuple(FiniteSet(n) for n in sizes_c)
        try:
            ident = eval_functor_mor(expr, tuple(FiniteFn.identity(x) for x in xs))
            if ident != FiniteFn.identity(ident.dom):
                return _fail(name, f"identity not preserved at sizes {sizes_a}")
            fs = tuple(_random_fn(rng, x, y) for x, y in zip(xs, ys))
            gs = tuple(_random_fn(rng, y, z) for y, z in zip(ys, zs))
            lhs = eval_functor_mor(expr, tuple(f.then(g) for f, g in zip(fs, gs)))
            rhs = eval_functor_mor(expr, fs).then(eval_functor_mor(expr, gs))
        except BudgetExceeded:
            # fixpoint subexpressions can be infinite away from the empty set;
            # those sizes simply cannot be sampled
            continue
        if lhs != rhs:
            return _fail(name, f"composition not preserved at sizes {sizes_a}")
        trials += 1
    if trials == 0:
        return _pass(name, "skipped: no finitely evaluable sample sizes")
    return _pass(name, f"{trials} random composites")


def apply_diagram(e: FunctorExpr, d: Diagram) -> Diagram:
    """Apply a unary functor expression to every object and arrow."""
    objects = {i: eval_functor(e, (d.objects[i],)) for i in d.indices}
    arrows = {
        edge: eval_functor_mor(e, (f,)) for edge, f in d.arrows.items()
    }
    return Diagram(objects, arrows)


def preserves_chain_colimit(e: FunctorExpr, d: Diagram) -> bool:
    """Smoke test: the canonical map colim F(D) -> F(colim D) is bijective."""
    mapped = apply_diagram(e, d)
    lhs = subdiagram_colimit(mapped)
    base = subdiagram_colimit(d)
    rhs = eval_functor(e, (base.apex,))
    table = lhs.induce(
        lambda i: eval_functor_mor(e, (base.legs[i],)).table,
        lambda cls: IntegrityError("canonical comparison map ill defined"),
    )
    fn = FiniteFn(lhs.apex, rhs, table)
    return fn.is_bijection()


def check_chain_preservation(
    label: str, expr: FunctorExpr, rng: random.Random, depth: int
) -> Dict:
    name = f"chain-colimits[{label}]"
    if expr_arity(expr) > 1:
        return _pass(name, "skipped: not an endofunctor")
    sizes = sorted(draws(rng, depth + 2, 3))
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {}
    for k in range(2):
        dom, cod = objects[k], objects[k + 1]
        table = tuple(sorted(rng.sample(range(cod.size), dom.size)))
        arrows[(k, k + 1)] = FiniteFn(dom, cod, table)
    arrows[(0, 2)] = arrows[(0, 1)].then(arrows[(1, 2)])
    chain = Diagram(objects, arrows)
    try:
        preserved = preserves_chain_colimit(expr, chain)
    except BudgetExceeded:
        return _pass(name, "skipped: fixpoint infinite on sampled chain")
    except (IllTypedArrow, NonFunctorialDiagram) as e:  # F's maps are no diagram
        return _fail(name, f"image of chain {sizes} is not a diagram: {e}")
    except IntegrityError as e:  # F of the legs induces no map out of the colimit
        return _fail(name, f"{e} on chain {sizes}")
    if not preserved:
        return _fail(name, f"comparison map not a bijection on chain {sizes}")
    return _pass(name, f"chain with carriers {sizes}")


def check_cocone_laws(rng: random.Random, samples: int, depth: int) -> Dict:
    name = "cocone-laws"
    for trial in range(samples):
        n0, n1, n2 = draws(rng, depth + 2, 3)
        objects = {0: FiniteSet(n0), 1: FiniteSet(n1), 2: FiniteSet(n2)}
        arrows = {}
        if n1:
            arrows[(0, 1)] = _random_fn(rng, objects[0], objects[1])
        if n2:
            arrows[(1, 2)] = _random_fn(rng, objects[1], objects[2])
        if n1 and n2:
            arrows[(0, 2)] = arrows[(0, 1)].then(arrows[(1, 2)])
        diagram = Diagram(objects, arrows)
        try:
            cocone = subdiagram_colimit(diagram)
        except NonFunctorialDiagram:  # not directed
            continue
        for (a, b), f in arrows.items():
            if f.then(cocone.legs[b]) != cocone.legs[a]:
                return _fail(name, f"leg mismatch on arrow {(a, b)} in trial {trial}")
        covered = set()
        for leg in cocone.legs.values():
            covered.update(leg.table)
        if covered != set(range(cocone.apex.size)):
            return _fail(name, f"legs not jointly surjective in trial {trial}")
    return _pass(name, f"{samples} random diagrams")


def run_checks(
    backend, functors: Dict[str, FunctorExpr], samples: int, depth: int, seed: int
) -> List[Dict]:
    """Run every suite over the declared functors; returns one report dict
    per check."""
    rng = random.Random(seed)
    reports = [
        check_order_laws(backend, rng, samples, depth),
        check_join_bounds(backend, rng, samples, depth),
        check_filtered(backend, rng, max(samples // 4, 8), depth),
        check_basis(backend, rng, max(samples // 4, 8), depth),
        check_cocone_laws(rng, max(samples // 8, 8), depth),
    ]
    fn_samples = max(samples // 20, 4)
    for label in sorted(functors):
        expr = functors[label]
        reports.append(check_functor_laws(label, expr, rng, fn_samples, depth))
        reports.append(check_chain_preservation(label, expr, rng, depth))
    return reports
