"""Colimits of finite-set diagrams as explicit quotients of disjoint sums.

A Diagram is its objects and its arrows: finite sets over hashable
indices, whose order is the order the objects are given in, and
functions between them keyed by (source, target) index pairs.  Arrows
must type-check and compose whenever all three arrows of a triangle are
present.  Colimits are computed by quotienting the tagged sum of the
objects by the equivalence closure of single-arrow witnesses: x in D(j)
is identified with arrow(j,i)(x).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, Sequence, Tuple

from .errors import (
    IllTypedArrow,
    IntegrityError,
    NonFunctorialDiagram,
    NoSuchIndex,
    ShapeMismatch,
)
from .finset import FiniteFn, FiniteSet, concat_tables, quotient_pairs


class Diagram:
    """Finite indexed family of sets and connecting functions.

    objects: index -> FiniteSet; the index order is their insertion order,
    read as the tuple indices.
    arrows: (j, i) -> FiniteFn from objects[j] to objects[i].
    """

    __slots__ = ("indices", "objects", "arrows")

    def __init__(
        self,
        objects: Dict[Hashable, FiniteSet],
        arrows: Dict[Tuple[Hashable, Hashable], FiniteFn],
    ):
        self.objects = dict(objects)
        self.arrows = dict(arrows)
        self.indices = tuple(self.objects)
        self._validate()

    def _validate(self):
        objects, arrows = self.objects, self.arrows
        for (j, i), f in arrows.items():
            if j not in objects or i not in objects:
                raise NoSuchIndex(f"arrow ({j!r}, {i!r}) uses unknown index")
            if j == i:
                raise NonFunctorialDiagram(f"self arrow at {i!r}")
            if f.dom != objects[j] or f.cod != objects[i]:
                raise IllTypedArrow(
                    f"arrow ({j!r}, {i!r}) is {f.dom.size}->{f.cod.size}, "
                    f"objects are {objects[j].size}->{objects[i].size}"
                )
        # triangles that are fully present must commute
        for k, j in arrows:
            for i in self.indices:
                if (j, i) in arrows and (k, i) in arrows:
                    left = arrows[(k, j)].then(arrows[(j, i)])
                    if left != arrows[(k, i)]:
                        raise NonFunctorialDiagram(
                            f"triangle {k!r} -> {j!r} -> {i!r} does not commute"
                        )

    def is_directed(self) -> bool:
        """Every pair of indices laxly reaches a common index: the up-sets
        of any two, each index with the targets of its arrows, meet."""
        ups = {i: {i} for i in self.indices}
        for j, i in self.arrows:
            ups[j].add(i)
        return all(
            not up.isdisjoint(other) for up, other in combinations(ups.values(), 2)
        )


def _no_representative(cls: int) -> Exception:
    return IntegrityError("colimit class with no representative")


class Cocone:
    """A colimit presentation: an apex and one leg per index.

    The legs are the blocks of one quotient map out of the sum of the
    objects, laid out block by block in index order; without arrows that
    map is the identity range, and each leg is a range slice of it.
    """

    __slots__ = ("diagram", "apex", "legs", "_quotient")

    def __init__(self, diagram: Diagram, apex: FiniteSet, quotient):
        self.diagram = diagram
        self.apex = apex
        self._quotient = quotient
        self.legs = {}
        for i, off in _offsets(diagram).items():
            part = diagram.objects[i]
            self.legs[i] = FiniteFn(part, apex, quotient[off : off + part.size])

    def induce(
        self, values, ill_defined, unreached=_no_representative
    ) -> Sequence[int]:
        """Table of the map out of the apex that composes with each leg to values.

        values(index) is the table of that composite on the index's object;
        it is called once per index, in index order.  ill_defined(cls) and
        unreached(cls) build what is raised for the first class given two
        values and for the first class given none.  When the quotient map
        is still the identity, the apex is the sum and the map is the
        values laid end to end (concat_tables).
        """
        objects = self.diagram.objects
        quotient = self._quotient
        # not the size alone: a sum-sized apex over merged classes is still checked
        if isinstance(quotient, range) and self.apex.size == len(quotient):
            return concat_tables(
                [_values_on(values, i, objects[i]) for i in self.diagram.indices]
            )
        table: list = [None] * self.apex.size
        for index in self.diagram.indices:
            vals = _values_on(values, index, objects[index])
            for cls, v in zip(self.legs[index].table, vals):
                got = table[cls]
                if got is None:
                    table[cls] = v
                elif got != v:
                    raise ill_defined(cls)
        if None in table:
            raise unreached(table.index(None))
        return table


def _values_on(values, index: Hashable, part: FiniteSet):
    vals = values(index)
    if len(vals) != part.size:
        raise ShapeMismatch(
            f"{len(vals)} values for a leg on {part.size} elements"
        )
    return vals


def _offsets(d: Diagram) -> Dict:
    """Where each index's block starts in the sum of the objects."""
    out = {}
    total = 0
    for i in d.indices:
        out[i] = total
        total += d.objects[i].size
    return out


def subdiagram_colimit(d: Diagram) -> Cocone:
    """Colimit of a directed (or empty) diagram fragment.

    The apex is the sum of the objects, laid out block by block in index
    order, modulo the closure of x ~ arrow(x) over every arrow; classes are
    numbered by least member of the sum, so the result is deterministic in
    the index order.  The quotient map's table on the sum is sliced into
    the legs.  Without arrows the quotient is the identity, so the apex is
    the sum itself.
    """
    if not d.is_directed():
        raise NonFunctorialDiagram("index fragment is not directed")
    total = FiniteSet(sum(d.objects[i].size for i in d.indices))
    if not d.arrows:
        return Cocone(d, total, range(total.size))
    offsets = _offsets(d)
    pairs = []
    for (j, i), h in d.arrows.items():
        start, off = offsets[j], offsets[i]
        targets = [off + v for v in h.table]
        pairs.extend(zip(range(start, start + h.dom.size), targets))
    apex, proj = quotient_pairs(total, pairs)
    return Cocone(d, apex, proj.table)
