"""Reference constructions the tests compare the library against.

None of these is reached by the command line: the element codecs of the
sum, product and container layouts, relations with their quotients and
kernels, colimits over arbitrary finite shapes by union-find, the fold
equation at one pair of stages, the stage maps and legs by recursion
through each other, the fold that maps each layer through the structure
map after building it, the enumeration of well-founded trees by
height, the dual chain with every comparison map built, the initial
chain through the colimit engine, with every stage's cocone, leg and
connecting map, and the script tokenizer that builds a Token record per
token, one character at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from muiter.colimit import Cocone, Diagram
from muiter.dsl import Token
from muiter.errors import (
    BudgetExceeded,
    DslSyntaxError,
    IllTypedArrow,
    IntegrityError,
    NoAlgebra,
    NoSuchIndex,
    ShapeMismatch,
)
from muiter.finset import FiniteFn, FiniteSet, quotient_pairs
from muiter.functors import FunctorExpr, eval_functor, eval_functor_mor, expr_arity
from muiter.iteration import (
    DEFAULT_BUDGET,
    MAX_CARRIER,
    AlgebraSpec,
    IterationState,
    MuResult,
    NuResult,
    _unrepresented,
)
from muiter.signature import Signature, WTree


# -- the layouts, one element at a time --------------------------------------
#
# The library computes only sizes and whole tables.  These codecs name single
# elements: a sum of sets of the given sizes lays part k out after the parts
# before it, a product numbers its tuples in mixed radix with the first
# component least significant, and a container applied to a set of n elements
# is the sum over ops of the products of |arity| copies of n.


def sum_encode(sizes: Sequence[int], tag: int, value: int) -> int:
    return sum(sizes[:tag]) + value


def sum_decode(sizes: Sequence[int], idx: int) -> Tuple[int, int]:
    for tag, n in enumerate(sizes):
        if idx < n:
            return tag, idx
        idx -= n
    raise ShapeMismatch("index past the end of the sum")


def product_encode(sizes: Sequence[int], values: Sequence[int]) -> int:
    idx = 0
    for n, v in zip(reversed(sizes), reversed(values)):
        idx = idx * n + v
    return idx


def product_decode(sizes: Sequence[int], idx: int) -> tuple:
    out = []
    for n in sizes:
        idx, v = divmod(idx, n)
        out.append(v)
    return tuple(out)


def container_blocks(sig: Signature, n: int) -> list:
    return [n ** a.size for a in sig.arities]


def container_encode(sig: Signature, n: int, op: int, args: Sequence[int]) -> int:
    inner = product_encode([n] * len(args), args)
    return sum_encode(container_blocks(sig, n), op, inner)


def container_decode(sig: Signature, n: int, idx: int) -> tuple:
    op, inner = sum_decode(container_blocks(sig, n), idx)
    return op, product_decode([n] * sig.arities[op].size, inner)


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
    shape = Diagram({i: objects[i] for i in indices}, {})
    sizes = [o.size for o in objects]
    total = FiniteSet(sum(sizes))
    if not arrows:
        return Cocone(shape, total, range(total.size))
    pairs = [
        (sum_encode(sizes, src, x), sum_encode(sizes, dst, h(x)))
        for src, dst, h in arrows
        for x in range(h.dom.size)
    ]
    apex, proj = quotient_pairs(total, pairs)
    return Cocone(shape, apex, proj.table)


def fold_equation_holds(state, alg, h: FiniteFn, j, i) -> bool:
    """Check h . leg(j,i) == structure . F(h . connect(j,i)) at one j."""
    lhs = state.leg(j, i).then(h)
    inner = state.connect(j, i).then(h)
    rhs = eval_functor_mor(state.functor, (inner,)).then(alg.structure)
    return lhs == rhs


class RecursiveIterationState(IterationState):
    """IterationState with connect and leg recursing through each other,
    one call per level between their indices, as they were written before
    they became loops; only shallow towers fit the interpreter's stack."""

    def connect(self, j, i) -> FiniteFn:
        """Stage map for laxly ordered indices j and i."""
        if j == i:
            return FiniteFn.identity(self.stage(j).apex)
        got = self._connects.get((j, i))
        if got is not None:
            return got
        src = self.stage(j)
        dst = self.stage(i)
        table = src.induce(
            lambda m: self.leg(m, i).table,
            lambda cls: IntegrityError(
                f"stage map {self.backend.render(j)} -> "
                f"{self.backend.render(i)} ill defined at class {cls}"
            ),
            _unrepresented,
        )
        out = FiniteFn(src.apex, dst.apex, table)
        self._connects[(j, i)] = out
        return out

    def leg(self, j, i) -> FiniteFn:
        """Fresh-layer injection F(stage j) -> stage i for j strictly below i."""
        got = self._legs.get((j, i))
        if got is not None:
            return got
        dst = self.stage(i)
        direct = dst.legs.get(j)
        if direct is not None:
            self._legs[(j, i)] = direct
            return direct
        for b in dst.diagram.indices:
            if self.backend.leq(j, b):
                out = eval_functor_mor(
                    self.functor, (self.connect(j, b),), then=dst.legs[b]
                )
                self._legs[(j, i)] = out
                return out
        raise IntegrityError(
            f"predecessor basis of {self.backend.render(i)} has no bound "
            f"for {self.backend.render(j)}"
        )


def reference_cata(state, alg: AlgebraSpec, i) -> FiniteFn:
    """The unique stage-indexed fold into the algebra.

    Built by the same well-founded recursion as the stages: a class coming
    from the layer F(stage j) folds by first folding at j inside F, then
    applying the structure map.
    """
    fa = eval_functor(state.functor, (alg.carrier,))
    if alg.structure.dom != fa:
        raise NoAlgebra(
            f"structure map domain has size {alg.structure.dom.size}, "
            f"functor applied to the carrier has {fa.size}"
        )
    structure = alg.structure.table
    done: Dict = {}

    def fold(idx) -> FiniteFn:
        got = done.get(idx)
        if got is not None:
            return got
        cocone = state.stage(idx)

        def layer(j) -> list:
            inner = eval_functor_mor(state.functor, (fold(j),))
            return [structure[v] for v in inner.table]

        table = cocone.induce(
            layer,
            lambda cls: IntegrityError(
                f"fold at {state.backend.render(idx)} ill defined at class {cls}"
            ),
            _unrepresented,
        )
        # induce gives one value per class, and each is structure[v] for v
        # in a checked table into F(carrier), so like FiniteFn.then the fold
        # needs no check
        out = FiniteFn.unchecked(cocone.apex, alg.carrier, tuple(table))
        done[idx] = out
        return out

    return fold(i)


def wtype_enumerate(sig: Signature, depth: int, node) -> list:
    """All trees over sig of height < depth, in canonical order.

    node builds them: the node method of a tree-order backend over sig or
    over a signature that extends it.  Canonical order sorts by op index,
    then children positions left to right in the order of the previous
    layer.  The count at each depth equals iterating the signature's
    container from the empty set.
    """
    if depth < 0:
        raise ShapeMismatch(f"negative depth {depth}")
    trees: list = []
    for _ in range(depth):
        prev = trees
        layer = []
        for op in sig.ops:
            layer.extend(
                node(op, combo)
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


def tree_key(tree: WTree) -> tuple:
    """Orders trees by op, then by their children in turn; trees of two
    backends have equal keys exactly when they have the same shape."""
    return (tree.op, tuple(tree_key(c) for c in tree.children))


def reference_sample_tree(backend, rng, max_height: int) -> WTree:
    """PlumpBackend.sample_tree by recursion: the same rng calls in the same
    order, one frame per level of the tree, each node built by the backend."""
    ext = backend.extended
    nullary = [op for op in ext.ops if ext.arities[op].size == 0]
    if max_height == 0:
        return backend.node(rng.choice(nullary))
    op = rng.randrange(ext.ops.size)
    kids = tuple(
        reference_sample_tree(backend, rng, max_height - 1)
        for _ in range(ext.arities[op].size)
    )
    return backend.node(op, kids)


def reference_nu(functor: FunctorExpr, budget: int = DEFAULT_BUDGET) -> NuResult:
    """Dual chain on numeric stages: start at a point, repeatedly apply F.

    Stage n+1 maps onto stage n by the image of the previous comparison
    (the base case is the unique map to the point); the chain is stationary
    when that comparison becomes a bijection.
    """
    if expr_arity(functor) > 1:
        raise ShapeMismatch("dual iteration needs an endofunctor of one argument")
    stages = [FiniteSet(1)]
    comparison: Optional[FiniteFn] = None
    profile = [{"index": "0", "size": 1}]
    while True:
        if len(stages) >= budget:
            raise BudgetExceeded(f"stage budget {budget} exhausted", profile)
        nxt = eval_functor(functor, (stages[-1],))
        if nxt.size > MAX_CARRIER:
            raise BudgetExceeded(
                f"carrier of size {nxt.size} exceeds the cap {MAX_CARRIER}",
                profile,
            )
        if comparison is None:
            comparison = FiniteFn.constant(nxt, stages[-1], 0)
        else:
            comparison = eval_functor_mor(functor, (comparison,))
        stages.append(nxt)
        profile.append({"index": str(len(stages) - 1), "size": nxt.size})
        if comparison.is_bijection():
            return NuResult(
                carrier=stages[-2],
                comparison=comparison,
                stationary_at=len(stages) - 1,
                profile=profile,
            )


def reference_mu(functor: FunctorExpr, backend, budget: int = DEFAULT_BUDGET) -> MuResult:
    """Iterate along the successor tower until the chain goes stationary.

    Stationarity needs both comparisons at once: the fresh layer
    F(stage i) -> stage succ(i) and the connecting map
    stage i -> stage succ(i) must be bijections.  The structure map is then
    the fresh-layer leg composed with the inverted connecting map.
    """
    state = IterationState(functor, backend, budget)
    i = backend.bottom()
    state.stage(i)
    steps = 0
    while True:
        nxt = backend.succ(i)
        state.stage(nxt)
        steps += 1
        fresh = state.leg(i, nxt)
        conn = state.connect(i, nxt)
        if fresh.is_bijection() and conn.is_bijection():
            iota = fresh.then(conn.inverse())
            alg = AlgebraSpec(state.stage(i).apex, iota)
            return MuResult(alg, steps, state.profile())
        i = nxt


def reference_tokenize(text: str) -> list:
    """The Token records of text, column by column; a comment's characters
    advance no column."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("NAT", text[start:i], line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if c in "=+*^|:.<>(),":
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("NEWLINE", "\n", line, col))
    tokens.append(Token("EOF", "", line + 1, 1))
    return tokens
