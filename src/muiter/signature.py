"""Operation signatures and the well-founded trees they generate.

A signature is a finite set of operation symbols, each with a finite arity
set.  Applying a signature to a set X yields the tagged sum over operations
of the tables arity(op) -> X; iterating that from the empty set enumerates
trees of bounded height.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatch
from .finset import (
    Block,
    Exponential,
    FiniteFn,
    FiniteSet,
    TaggedSum,
    exponential,
    product_table,
    sum_table,
)


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

    def arity(self, op: int) -> FiniteSet:
        return self.arities[op]

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


def empty_signature() -> Signature:
    return Signature(FiniteSet(0), [])


def signature_sum(parts: Sequence[Signature]) -> Signature:
    """Disjoint union of signatures; operations become tagged pairs."""
    labels = []
    arities = []
    for tag, sig in enumerate(parts):
        for op in sig.ops:
            labels.append(f"{tag}.{sig.op_label(op)}")
            arities.append(sig.arities[op])
    return Signature(FiniteSet(len(arities), labels=labels), arities)


# every tree ever built, keyed by (op, children); children are interned
# first, so one lookup per node makes structural equality identity
_INTERNED: dict = {}


class WTree:
    """A finitely branching well-founded tree over some signature.

    Nodes carry the operation index; the children tuple must match the
    operation's arity.  Trees are hash-consed: building a tree equal to an
    existing one returns that same object, so equality and hashing are
    identity, and shared subtrees (a successor is join(t, t)) cost nothing
    extra.  The height is computed once, at construction.
    """

    __slots__ = ("op", "children", "_height", "_sort_key")

    def __new__(cls, op: int, children: Sequence["WTree"] = ()):
        children = tuple(children)
        key = (op, children)
        tree = _INTERNED.get(key)
        if tree is None:
            tree = object.__new__(cls)
            object.__setattr__(tree, "op", op)
            object.__setattr__(tree, "children", children)
            object.__setattr__(
                tree, "_height", 1 + max((c._height for c in children), default=-1)
            )
            object.__setattr__(tree, "_sort_key", None)
            _INTERNED[key] = tree
        return tree

    def __setattr__(self, name, value):
        raise AttributeError("WTree is immutable")

    def height(self) -> int:
        """0 for leaves, else one more than the tallest child."""
        return self._height

    def _distinct_nodes(self) -> list:
        """Each distinct node of the shared DAG once, children first."""
        order: list = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((c, False) for c in node.children)
        return order

    def node_count(self) -> int:
        """Nodes of the tree, counting a shared subtree once per occurrence."""
        counts: dict = {}
        for node in self._distinct_nodes():
            counts[node] = 1 + sum(counts[c] for c in node.children)
        return counts[self]

    def sort_key(self):
        """(op, children's keys): orders trees by op, then children in turn.

        The key is built once per interned node and kept on it, so every
        call returns the same tuple and a shared subtree's key is one shared
        tuple; comparing keys of equal trees stops at identity.
        """
        if self._sort_key is None:
            for node in self._distinct_nodes():
                if node._sort_key is None:
                    key = (node.op, tuple(c._sort_key for c in node.children))
                    object.__setattr__(node, "_sort_key", key)
        return self._sort_key

    def render(self, sig: Optional[Signature] = None) -> str:
        """The tree written out in full, shared subtrees repeated.

        Its length grows with node_count(), exponential in the depth of a
        shared DAG such as a successor tower, so it is walked as a tree.
        """
        name = sig.op_label(self.op) if sig is not None else str(self.op)
        if not self.children:
            return name
        return f"{name}({', '.join(c.render(sig) for c in self.children)})"

    def __repr__(self):
        return f"WTree({self.render()})"


def validate_tree(sig: Signature, tree: WTree) -> None:
    """Check that every node's children count matches its op arity.

    Each distinct node of the shared DAG is checked once, children first.
    """
    for node in tree._distinct_nodes():
        if node.op not in sig.ops:
            raise ShapeMismatch(f"operation {node.op} outside signature {sig!r}")
        want = sig.arities[node.op].size
        if len(node.children) != want:
            raise ShapeMismatch(
                f"op {sig.op_label(node.op)} expects {want} children, "
                f"got {len(node.children)}"
            )


class ContainerLayout:
    """Indexing for sum-over-ops-of-exponentials applications of a signature.

    Element i of the applied set decodes to (op, argument tuple); the block
    for each op has size |X| ** arity(op).
    """

    __slots__ = ("sig", "base", "_exps", "_sum", "set")

    def __init__(self, sig: Signature, base: FiniteSet):
        exps = tuple(exponential(base, a) for a in sig.arities)
        layout = TaggedSum([e.set for e in exps])
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_sum", layout)
        object.__setattr__(self, "set", layout.set)

    def __setattr__(self, name, value):
        raise AttributeError("ContainerLayout is immutable")

    def encode(self, op: int, args: Sequence[int]) -> int:
        return self._sum.encode(op, self._exps[op].encode(args))

    def decode(self, idx: int) -> tuple:
        op, inner = self._sum.decode(idx)
        return op, self._exps[op].decode(inner)


def container_layout(sig: Signature, base: FiniteSet) -> ContainerLayout:
    return ContainerLayout(sig, base)


def container_apply(sig: Signature, base: FiniteSet) -> FiniteSet:
    """The set of one-layer terms: an op plus an arity-indexed argument table."""
    return ContainerLayout(sig, base).set


def container_map(sig: Signature, f: FiniteFn) -> FiniteFn:
    """Apply f to every argument position, preserving the op tag."""
    src = ContainerLayout(sig, f.dom)
    dst = ContainerLayout(sig, f.cod)
    blocks = [
        Block(s.set, d.set, product_table([f] * a.size))
        for s, d, a in zip(src._exps, dst._exps, sig.arities)
    ]
    return FiniteFn(src.set, dst.set, sum_table(blocks))


def wtype_enumerate(sig: Signature, depth: int) -> list:
    """All trees of height < depth, in canonical order.

    Canonical order sorts by op index, then children positions left to
    right in the order of the previous layer.  The count at each depth
    equals iterating container_apply from the empty set.
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
