"""Operation signatures and the well-founded trees they generate.

A signature is a finite set of operation symbols, each with a finite arity
set and a name.  Applied to a set X, a signature yields the tagged sum
over operations of the tables arity(op) -> X, the powers X**|arity(op)|:
functors.Container(sig) builds that sum of powers, and iterating it from
the empty set enumerates trees of bounded height.  A signature also indexes the tree order
(size.kappa_sigma): Signature.of() for bare plump, a declared one for
plump:<sig>.  It is chosen with the order, never read off a functor, and
the order's backend builds and owns the trees (size.PlumpBackend.node).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ShapeMismatch
from .finset import FiniteSet


class Signature:
    """Operation symbols with per-symbol finite arities.

    labels name the operations for display; they take no part in equality.
    """

    __slots__ = ("ops", "arities", "labels")

    def __init__(
        self,
        ops: FiniteSet,
        arities: Sequence[FiniteSet],
        labels: Optional[Sequence[str]] = None,
    ):
        arities = tuple(arities)
        if len(arities) != ops.size:
            raise ShapeMismatch(
                f"{len(arities)} arities for {ops.size} operations"
            )
        labels = None if labels is None else tuple(labels)
        if labels is not None and len(labels) != ops.size:
            raise ShapeMismatch(f"{len(labels)} labels for {ops.size} operations")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    @staticmethod
    def of(*arity_sizes: int, labels: Optional[Sequence[str]] = None) -> "Signature":
        """Shorthand: Signature.of(0, 2) is one nullary and one binary op."""
        arities = [FiniteSet(n) for n in arity_sizes]
        return Signature(FiniteSet(len(arity_sizes)), arities, labels)

    def op_label(self, op: int) -> str:
        if self.labels is not None:
            return self.labels[op]
        return str(op)

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


class WTree:
    """A finitely branching well-founded tree over some signature.

    Nodes carry the operation index; the children tuple must match the
    operation's arity.  Trees are built only by a tree-order backend
    (size.PlumpBackend.node), which keeps one of each in its table: within
    one backend, equal trees are one object, so equality and hashing are
    identity, and shared subtrees (a successor is join(t, t)) cost nothing
    extra.  Trees of two backends are not compared.  The height is
    computed once, at construction.
    """

    __slots__ = ("op", "children", "_height")

    def __setattr__(self, name, value):
        raise AttributeError("WTree is immutable")

    def height(self) -> int:
        """0 for leaves, else one more than the tallest child."""
        return self._height

    def __repr__(self):
        # O(1) in the depth: a shared tree written out is exponential in it
        return f"WTree(op={self.op}, height={self._height})"
