"""Reference constructions the tests compare the library against.

None of these is reached by the command line: relations with their
quotients and kernels, colimits over arbitrary finite shapes by union-find,
the fold equation at one pair of stages, and the enumeration of
well-founded trees by height.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from muiter.colimit import Cocone, Diagram
from muiter.errors import IllTypedArrow, NoSuchIndex, ShapeMismatch
from muiter.finset import FiniteFn, FiniteSet, TaggedSum, quotient_pairs
from muiter.functors import eval_functor_mor
from muiter.signature import Signature, WTree


class Relation:
    """A binary relation on one finite set, as a set of index pairs."""

    __slots__ = ("base", "pairs")

    def __init__(self, base: FiniteSet, pairs: Iterable[tuple]):
        pairs = frozenset((int(a), int(b)) for a, b in pairs)
        for a, b in pairs:
            if a not in base or b not in base:
                raise ShapeMismatch(f"pair ({a},{b}) outside base of size {base.size}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.base == other.base
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash(("Relation", self.base.size, self.pairs))

    def __repr__(self):
        return f"Relation({self.base.size}, {sorted(self.pairs)})"


def quotient(base: FiniteSet, rel: Relation) -> tuple:
    """Quotient base by the equivalence closure of rel.

    Returns (classes, projection) where classes are ordered by their least
    member and the projection sends each element to its class index.
    """
    if rel.base != base:
        raise ShapeMismatch("relation base does not match the set")
    return quotient_pairs(base, rel.pairs)


def kernel(p: FiniteFn) -> Relation:
    """All pairs identified by p, including the diagonal."""
    buckets = {}
    for x, v in enumerate(p.table):
        buckets.setdefault(v, []).append(x)
    pairs = []
    for xs in buckets.values():
        for a in xs:
            for b in xs:
                pairs.append((a, b))
    return Relation(p.dom, pairs)


def finite_cat_colimit(
    objects: Sequence[FiniteSet],
    arrows: Sequence[Tuple[int, int, FiniteFn]],
) -> Cocone:
    """Colimit over an arbitrary finite shape given by generating arrows.

    No directedness is required; the quotient identifies x with h(x) for
    every generating arrow h, which also covers all composites.  Classes
    are numbered by least member of the tagged sum of the objects.
    """
    indices = list(range(len(objects)))
    for src, dst, h in arrows:
        if not 0 <= src < len(objects) or not 0 <= dst < len(objects):
            raise NoSuchIndex(f"arrow endpoints ({src}, {dst}) out of range")
        if h.dom != objects[src] or h.cod != objects[dst]:
            raise IllTypedArrow(
                f"arrow {src}->{dst} is {h.dom.size}->{h.cod.size}, "
                f"objects are {objects[src].size}->{objects[dst].size}"
            )
    shape = Diagram(indices, [], {i: objects[i] for i in indices}, {})
    layout = TaggedSum(objects)
    if not arrows:
        return Cocone(shape, layout.set, range(layout.set.size), layout)
    offsets = layout.offsets
    pairs = []
    for src, dst, h in arrows:
        start, off = offsets[src], offsets[dst]
        targets = [off + v for v in h.table]
        pairs.extend(zip(range(start, start + h.dom.size), targets))
    apex, proj = quotient_pairs(layout.set, pairs)
    return Cocone(shape, apex, proj.table, layout)


def fold_equation_holds(state, alg, h: FiniteFn, j, i) -> bool:
    """Check h . leg(j,i) == structure . F(h . connect(j,i)) at one j."""
    lhs = state.leg(j, i).then(h)
    inner = state.connect(j, i).then(h)
    rhs = eval_functor_mor(state.functor, (inner,)).then(alg.structure)
    return lhs == rhs


def wtype_enumerate(sig: Signature, depth: int) -> list:
    """All trees of height < depth, in canonical order.

    Canonical order sorts by op index, then children positions left to
    right in the order of the previous layer.  The count at each depth
    equals iterating the signature's container from the empty set.
    """
    if depth < 0:
        raise ShapeMismatch(f"negative depth {depth}")
    trees: list = []
    for _ in range(depth):
        prev = trees
        layer = []
        for op in sig.ops:
            layer.extend(
                WTree(op, combo)
                for combo in _tuples(prev, sig.arities[op].size)
            )
        trees = layer
    return trees


def _tuples(pool: Sequence, n: int) -> Iterable[tuple]:
    """Cartesian power in lexicographic order over pool positions."""
    if n == 0:
        yield ()
        return
    for head in pool:
        for rest in _tuples(pool, n - 1):
            yield (head,) + rest
