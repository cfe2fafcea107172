"""Size indices: well-founded directed orders that drive iteration.

Two backends share one interface.  The numeric backend uses natural numbers
with max-plus-one as join.  The tree backend orders well-founded trees over
a signature extended with a fresh nullary bottom and a fresh binary join;
its comparison is the mutually recursive rule pair

    s <= t  iff  every child of s is < t
    s <  t  iff  s is <= some child of t

Every arity is a finite set, so every tree is finite, and induction on
height(s) + height(t) turns the pair into height(s) <= height(t) and
height(s) < height(t); the backend compares the heights that trees cache
at construction.  predecessor_basis is the finiteness
interface: a finite family of indices such that anything strictly below i
is laxly below some family member, which is what lets colimits over the
unbounded down-set of i be computed over finitely many stages.

Samples are drawn below n the way random.Random draws them: getrandbits of
n's bit length, again until the value is below n.  So draws read the same
generator words as randrange, choice and randint, and a seed keeps its
samples.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, Tuple

from .errors import BudgetExceeded, ShapeMismatch
from .finset import FiniteSet
from .signature import Signature, WTree

# the most tree nodes the sampler of one PlumpBackend draws
MAX_DRAWN = 1_000_000

_new, _set = object.__new__, object.__setattr__  # for PlumpBackend.node


def draws(rng: random.Random, n: int, count: int) -> list:
    """count values below n, reading the words count calls of
    rng.randrange(n) read; like randrange, n <= 0 is a ValueError unless
    nothing is drawn."""
    if not count:
        return []
    if n <= 0:
        raise ValueError(f"empty range for draws below {n}")
    getrandbits, bits = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        out.append(r)
    return out


class NatBackend:
    """Natural numbers: lt is <, join is max plus one.

    These are the heights of the tree order over no operations, so the
    base signature is the empty one.
    """

    name = "nat"
    base = Signature.of()

    def lt(self, i: int, j: int) -> bool:
        return i < j

    def leq(self, i: int, j: int) -> bool:
        return i <= j

    def bottom(self) -> int:
        return 0

    def join(self, i: int, j: int) -> int:
        return max(i, j) + 1

    def succ(self, i: int) -> int:
        return i + 1  # join(i, i)

    def predecessor_basis(self, i: int) -> tuple:
        if i == 0:
            return ()
        return (i - 1,)

    def render(self, i: int) -> str:
        return str(i)

    def stage_index(self, k: int) -> str:
        """render of the k-th successor of bottom, which is k."""
        return str(k)

    def sample_indices(self, rng: random.Random, count: int, max_height: int) -> list:
        return draws(rng, max_height + 1, count)


def nat_backend() -> NatBackend:
    return NatBackend()


class PlumpBackend:
    """Tree order over a signature extended with bottom and join ops.

    The original operations keep their indices; the two fresh ops sit at
    the end: a nullary one (the bottom index) and a binary one (the join).
    The backend owns its trees: node builds each one once and keeps it in
    the backend's table, which lives as long as the backend does.  drawn
    counts the tree nodes the sampler has drawn, at most MAX_DRAWN.
    """

    name = "plump"

    __slots__ = (
        "base", "extended", "bottom_op", "join_op", "arity_sizes", "leaf_of",
        "leaves", "drawn", "_table",
    )

    def __init__(self, base: Signature):
        labels = [base.op_label(op) for op in base.ops] + ["bot", "join"]
        arities = list(base.arities) + [FiniteSet(0), FiniteSet(2)]
        self.base = base
        self.extended = Signature(FiniteSet(len(arities)), arities, labels)
        self.bottom_op = base.ops.size
        self.join_op = base.ops.size + 1
        self.arity_sizes = tuple(a.size for a in arities)
        # (op, children) -> its one tree; one lookup per node, equality is identity
        self._table = {}
        # each op's leaf, None for an op with arguments; and the leaves alone
        self.leaf_of = tuple(
            None if a else self.node(op) for op, a in enumerate(self.arity_sizes)
        )
        self.leaves = tuple(leaf for leaf in self.leaf_of if leaf is not None)
        self.drawn = 0

    def node(self, op: int, children: Sequence[WTree] = ()) -> WTree:
        """The tree op(children), from this backend's table or built into it."""
        key = (op, tuple(children))
        tree = self._table.get(key)
        if tree is None:
            height = 0
            for child in key[1]:
                if child._height >= height:
                    height = child._height + 1
            tree = self._table[key] = _new(WTree)
            _set(tree, "op", op)
            _set(tree, "children", key[1])
            _set(tree, "_height", height)
        return tree

    def lt(self, i: WTree, j: WTree) -> bool:
        return i._height < j._height

    def leq(self, i: WTree, j: WTree) -> bool:
        return i._height <= j._height

    def bottom(self) -> WTree:
        return self.node(self.bottom_op)

    def join(self, i: WTree, j: WTree) -> WTree:
        return self.node(self.join_op, (i, j))

    def succ(self, i: WTree) -> WTree:
        return self.node(self.join_op, (i, i))

    def predecessor_basis(self, i: WTree) -> tuple:
        return i.children

    def render(self, i: WTree) -> str:
        # join(t, t) is the successor by construction; folding that pattern
        # keeps tower indices readable (and linear instead of doubling).
        # The tower is peeled in a loop, so its depth costs no recursion.
        depth = 0
        while i.op == self.join_op and i.children[0] is i.children[1]:
            i = i.children[0]
            depth += 1
        base = self.extended.op_label(i.op)
        if i.children:
            base += "(" + ", ".join(self.render(c) for c in i.children) + ")"
        return "succ(" * depth + base + ")" * depth

    def stage_index(self, k: int) -> str:
        """render of the k-th successor of bottom, built by arithmetic."""
        return "succ(" * k + self.extended.op_label(self.bottom_op) + ")" * k

    def sample_indices(
        self, rng: random.Random, count: int, max_height: int
    ) -> list:
        """count trees from sample_tree; each one's max_height is drawn
        below max_height + 1, as draws does it, just before the tree."""
        if count and max_height < 0:
            raise ValueError(f"empty range for heights up to {max_height}")
        getrandbits, heights = rng.getrandbits, max_height + 1
        bits = heights.bit_length()

        def drawn_heights():
            for _ in range(count):
                height = getrandbits(bits)
                while height >= heights:
                    height = getrandbits(bits)
                yield height

        return self._trees(rng, drawn_heights())

    def sample_tree(self, rng: random.Random, max_height: int) -> WTree:
        """A uniform-ish random tree of height at most max_height.

        Drawn in pre-order: a node at height budget 0 is a uniform nullary
        op, any other node a uniform op whose children are drawn left to
        right at one less.  The nodes still waiting for children sit on a
        stack, so the depth of the tree costs no recursion.  A leaf is the
        backend's own, and a finished node is looked up in the backend's
        table, so node builds only a tree not seen before.  Drawing the
        node past the backend's MAX_DRAWN raises BudgetExceeded.

        Only rng.getrandbits is called: the op and leaf draws inline
        draws, so they read the words rng.randrange(ops) and
        rng.choice(leaves) would.
        """
        (tree,) = self._trees(rng, (max_height,))
        return tree

    def _trees(self, rng: random.Random, max_heights) -> list:
        # sample_tree at each of max_heights in turn, in one frame; the
        # heights may be drawn lazily, between the trees
        arities, leaf_of, leaves = self.arity_sizes, self.leaf_of, self.leaves
        getrandbits = rng.getrandbits
        known, node = self._table.get, self.node
        ops, nleaves = len(arities), len(leaves)
        op_bits, leaf_bits = ops.bit_length(), nleaves.bit_length()
        left = MAX_DRAWN - self.drawn
        out = []
        for max_height in max_heights:
            open_nodes: list = []  # (op, children drawn so far), root first
            while True:
                # draw one node with max_height left
                if not left:
                    self.drawn = MAX_DRAWN
                    raise BudgetExceeded(
                        f"tree nodes drawn exceed the cap {MAX_DRAWN}"
                    )
                left -= 1
                if max_height == 0:
                    r = getrandbits(leaf_bits)
                    while r >= nleaves:
                        r = getrandbits(leaf_bits)
                    tree = leaves[r]
                else:
                    op = getrandbits(op_bits)
                    while op >= ops:
                        op = getrandbits(op_bits)
                    if arities[op]:
                        open_nodes.append((op, []))
                        max_height -= 1
                        continue
                    tree = leaf_of[op]
                # hand it to its parent, closing every node it completes
                while open_nodes:
                    op, kids = open_nodes[-1]
                    kids.append(tree)
                    if len(kids) < arities[op]:
                        break
                    open_nodes.pop()
                    key = (op, tuple(kids))
                    tree = known(key) or node(*key)
                    max_height += 1
                else:
                    break
            out.append(tree)
        self.drawn = MAX_DRAWN - left
        return out


def kappa_sigma(sig: Signature) -> PlumpBackend:
    """The tree-order backend attached to a signature."""
    return PlumpBackend(sig)


def height(i) -> int:
    """Rank of an index: numeric value or tree height."""
    if isinstance(i, WTree):
        return i.height()
    return int(i)


def filtered_sample_check(
    backend, samples: Iterable[Tuple[int, Sequence]]
) -> Tuple[bool, list]:
    """Check that each sampled arity-indexed family has a strict upper bound.

    Each sample is (op, family) where op indexes an operation of the
    backend's base signature and family is a tuple of indices.  A family
    of an operation is bounded by that operation's node over it; one with
    no base operation (any family under nat, whose base signature is
    empty, or a tree backend's op past its base signature) by the
    backend's join folded from bottom.
    Returns (all_bounded, witnesses) with one witness bound per sample.
    """
    witnesses = []
    ok = True
    bottom = backend.bottom()
    for op, family in samples:
        family = tuple(family)
        if op < backend.base.ops.size:
            want = backend.base.arities[op].size
            if want != len(family):
                raise ShapeMismatch(
                    f"family of size {len(family)} for op of arity {want}"
                )
            witness = backend.node(op, family)
        else:
            witness = bottom
            for member in family:
                witness = backend.join(witness, member)
        witnesses.append(witness)
        for member in family:
            if not backend.lt(member, witness):
                ok = False
    return ok, witnesses


def successor_tower(backend, length: int) -> list:
    """bottom, succ(bottom), succ(succ(bottom)), ... of the given length."""
    tower = []
    i = backend.bottom()
    for _ in range(length):
        tower.append(i)
        i = backend.succ(i)
    return tower
