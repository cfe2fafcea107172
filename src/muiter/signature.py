"""Operation signatures and the well-founded trees they generate.

A signature is a finite set of operation symbols, each with a finite arity
set.  Applying a signature to a set X (functors.Container) yields the
tagged sum over operations of the tables arity(op) -> X, the powers
X**|arity(op)|; iterating that from the empty set enumerates trees of
bounded height.  A signature also indexes the tree order
(size.kappa_sigma): Signature.of() for bare plump, a declared one for
plump:<sig>.  It is chosen with the order, never read off a functor.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ShapeMismatch
from .finset import FiniteSet


class Signature:
    """Operation symbols with per-symbol finite arities."""

    __slots__ = ("ops", "arities")

    def __init__(self, ops: FiniteSet, arities: Sequence[FiniteSet]):
        arities = tuple(arities)
        if len(arities) != ops.size:
            raise ShapeMismatch(
                f"{len(arities)} arities for {ops.size} operations"
            )
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "arities", arities)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    @staticmethod
    def of(*arity_sizes: int, labels: Optional[Sequence[str]] = None) -> "Signature":
        """Shorthand: Signature.of(0, 2) is one nullary and one binary op."""
        ops = FiniteSet(len(arity_sizes), labels=labels)
        return Signature(ops, [FiniteSet(n) for n in arity_sizes])

    def op_label(self, op: int) -> str:
        return self.ops.label(op)

    def __eq__(self, other):
        return (
            isinstance(other, Signature)
            and self.ops == other.ops
            and self.arities == other.arities
        )

    def __hash__(self):
        return hash(("Signature", self.ops.size, tuple(a.size for a in self.arities)))

    def __repr__(self):
        body = ", ".join(
            f"{self.op_label(op)}:{self.arities[op].size}" for op in self.ops
        )
        return f"Signature({body})"


# every tree ever built, keyed by (op, children); children are interned
# first, so one lookup per node makes structural equality identity (the
# tree sampler, size.PlumpBackend.sample_tree, looks its nodes up here)
_INTERNED: dict = {}
_set = object.__setattr__  # a WTree's slots are written once, here


class WTree:
    """A finitely branching well-founded tree over some signature.

    Nodes carry the operation index; the children tuple must match the
    operation's arity.  Trees are hash-consed: building a tree equal to an
    existing one returns that same object, so equality and hashing are
    identity, and shared subtrees (a successor is join(t, t)) cost nothing
    extra.  The height is computed once, at construction.
    """

    __slots__ = ("op", "children", "_height")

    def __new__(cls, op: int, children: Sequence["WTree"] = ()):
        children = tuple(children)
        key = (op, children)
        tree = _INTERNED.get(key)
        if tree is None:
            height = 0
            for child in children:
                if child._height >= height:
                    height = child._height + 1
            tree = object.__new__(cls)
            _set(tree, "op", op)
            _set(tree, "children", children)
            _set(tree, "_height", height)
            _INTERNED[key] = tree
        return tree

    def __setattr__(self, name, value):
        raise AttributeError("WTree is immutable")

    def height(self) -> int:
        """0 for leaves, else one more than the tallest child."""
        return self._height

    def __repr__(self):
        # O(1) in the depth: a shared tree written out is exponential in it
        return f"WTree(op={self.op}, height={self._height})"
