"""Functor expressions over finite sets: evaluation on objects and maps.

Expressions form a small AST.  eval_functor computes the object part on a
tuple of argument sets, eval_functor_mor the morphism part on a tuple of
functions.  How big F(X_1, ..., X_n) is depends only on |X_1|, ...,
|X_n|, so the object part is one recursion over ints, _size; the
successor tower (iteration.tower) sizes its stages with it and builds no
set.  The morphism part is one recursion too, _mor, and a map always
carries a post table out of its codomain, the identity range when the
caller gives none.  Both recurse once per level of the expression.  A
script's expression nests at most dsl.MAX_NESTING levels, counting the
levels of the declarations it names; one built deeper by hand is outside
that cap.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod
from typing import Tuple

from .errors import ShapeMismatch
from .finset import (
    FiniteFn,
    FiniteSet,
    concat_tables,
    product_rows,
    sum_slices,
    then_table,
)


class Record:
    """A value record whose fields are its class's __slots__.

    Fields come by position or by name, else from the class's _defaults.
    Records are equal when their types and fields are, and the repr is
    Name(field=value, ...).  A Record can be assigned to, so it has no
    hash; a FrozenRecord refuses assignment and hashes by its fields.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = type(self).__slots__
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """args followed by the later fields, given by name or defaulted."""
        rest = cls.__slots__[len(args):]
        missing = [n for n in rest if n not in kwargs and n not in cls._defaults]
        if len(args) > len(cls.__slots__) or kwargs.keys() - set(rest) or missing:
            raise TypeError(
                f"{cls.__name__} takes the fields {cls.__slots__}, got "
                f"{len(args)} by position and {sorted(kwargs)} by name"
            )
        return args + tuple(kwargs.get(n, cls._defaults.get(n)) for n in rest)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned, hashed by their values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._fields())


class FunctorExpr(FrozenRecord):
    """Base class for functor expression nodes."""

    __slots__ = ()


class Identity(FunctorExpr):
    """The first argument, unchanged."""

    __slots__ = ()


class Projection(FunctorExpr):
    """The k-th argument, unchanged."""

    __slots__ = ("slot",)


class Constant(FunctorExpr):
    """A fixed set, ignoring all arguments."""

    __slots__ = ("value",)


class Sum(FunctorExpr):
    """Disjoint union of the parts, laid out block by block."""

    __slots__ = ("parts",)


class Product(FunctorExpr):
    """Cartesian product of the parts, mixed-radix encoded."""

    __slots__ = ("parts",)


class Power(FunctorExpr):
    """The product of exponent copies of base, so base**0 is one point."""

    __slots__ = ("base", "exponent")


class Compose(FunctorExpr):
    """outer applied to the results of the inner expressions, stored as a tuple."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: FunctorExpr, inner):
        if isinstance(inner, FunctorExpr):
            inner = (inner,)
        super().__init__(outer, tuple(inner))


def Container(sig) -> Sum:
    """A signature's functor: X maps to the sum over ops of the tables
    arity(op) -> X, the powers X**|arity(op)|, laid out as that sum."""
    return Sum(tuple([Power(Identity(), a.size) for a in sig.arities]))


class SymContainer(FunctorExpr):
    """Tables arity -> X up to every permutation of their arguments.

    X maps to X**arity / S_arity, the multisets of arity elements of X.
    """

    __slots__ = ("arity",)


class MuParam(FunctorExpr):
    """Least fixpoint of a binary expression in its second slot.

    Evaluates X to the stationary carrier of Y |-> body(X, Y), which
    iteration.nested_chain sizes; the morphism part is the mediating fold
    between the two fixpoints.
    """

    __slots__ = ("body",)


# the symmetry groups a script can name, by arity: swapk permutes all k
# arguments, so sym<swapk> X is X**k / S_k
BUILTIN_GROUPOIDS = {"swap2": 2, "swap3": 3}


def expr_arity(e: FunctorExpr) -> int:
    """Minimum number of arguments the expression consumes."""
    if isinstance(e, Identity):
        return 1
    if isinstance(e, Projection):
        return e.slot + 1
    if isinstance(e, Constant):
        return 0
    if isinstance(e, (Sum, Product)):
        return max((expr_arity(p) for p in e.parts), default=0)
    if isinstance(e, Power):
        return expr_arity(e.base) if e.exponent else 0
    if isinstance(e, Compose):
        if expr_arity(e.outer) > len(e.inner):
            raise ShapeMismatch(
                f"outer expression needs {expr_arity(e.outer)} arguments, "
                f"inner supplies {len(e.inner)}"
            )
        return max((expr_arity(g) for g in e.inner), default=0)
    if isinstance(e, SymContainer):
        return 1
    if isinstance(e, MuParam):
        if expr_arity(e.body) > 2:
            raise ShapeMismatch("fixpoint body must be at most binary")
        return 1
    raise ShapeMismatch(f"unknown expression node {type(e).__name__}")


def _need(env: tuple, n: int, e: FunctorExpr):
    if len(env) < n:
        raise ShapeMismatch(
            f"{type(e).__name__} needs {n} arguments, got {len(env)}"
        )


def eval_functor(e: FunctorExpr, env: Tuple[FiniteSet, ...]) -> FiniteSet:
    """Object part: the set e makes of the argument sets, of the size
    _size gives for the arguments' sizes."""
    return FiniteSet(_size(e, tuple([x.size for x in env])))


def _size(e: FunctorExpr, env: tuple) -> int:
    """The size of e applied to sets of the sizes in env.

    How big F(X_1, ..., X_n) is depends only on |X_1|, ..., |X_n|, so
    this is one recursion over ints.  Nodes are told apart by their exact
    type; a sum or a product adds up or multiplies out its parts one at a
    time, a constant's size or the argument's in place, any other part
    (an identity with no argument too) by the recursion.
    """
    kind = type(e)
    if kind is Sum:
        total = 0
        for part in e.parts:
            if type(part) is Constant:
                total += part.value.size
            elif type(part) is Identity and env:
                total += env[0]
            else:
                total += _size(part, env)
        return total
    if kind is Identity:
        _need(env, 1, e)
        return env[0]
    if kind is Constant:
        return e.value.size
    if kind is Product:
        total = 1
        for part in e.parts:
            if type(part) is Constant:
                total *= part.value.size
            elif type(part) is Identity and env:
                total *= env[0]
            else:
                total *= _size(part, env)
        return total
    if kind is Projection:
        _need(env, e.slot + 1, e)
        return env[e.slot]
    if kind is Power:
        return _size(e.base, env) ** e.exponent if e.exponent else 1
    if kind is SymContainer:
        _need(env, 1, e)
        return _multisets(env[0], e.arity)
    if kind is Compose:
        return _size(e.outer, tuple([_size(g, env) for g in e.inner]))
    if kind is MuParam:
        _need(env, 1, e)
        from . import iteration

        return iteration.nested_chain(e, env[0])[1][-1]
    raise ShapeMismatch(f"unknown expression node {kind.__name__}")


def eval_functor_mor(e: FunctorExpr, fns: Tuple[FiniteFn, ...], then=None):
    """Morphism part: the FiniteFn e makes of the argument functions.

    With then, a map out of e applied to the codomains, the result is that
    morphism part followed by then, built as one table: every value comes
    from then's table, so like FiniteFn.then it needs no check.  Without
    it, the post table is the identity range, and the table is checked
    once, as a whole.
    """
    fns = tuple(fns)
    if then is None:
        out = _fn(e, fns)
        return FiniteFn(out.dom, out.cod, out.table)
    size = _size(e, tuple([f.cod.size for f in fns]))
    if then.dom.size != size:
        raise ShapeMismatch(
            f"cannot compose: codomain {size} vs domain {then.dom.size}"
        )
    pieces: list = []
    dom = _mor(e, fns, then.table, pieces)
    return FiniteFn.unchecked(FiniteSet(dom), then.cod, concat_tables(pieces))


def _fn(e: FunctorExpr, fns: tuple) -> FiniteFn:
    """e's morphism part on fns, as an unchecked FiniteFn: its codomain
    is sized by _size, and its post table is that codomain's identity."""
    cod = _size(e, tuple([f.cod.size for f in fns]))
    pieces: list = []
    dom = _mor(e, fns, range(cod), pieces)
    return FiniteFn.unchecked(FiniteSet(dom), FiniteSet(cod), concat_tables(pieces))


def _mor(e: FunctorExpr, fns: tuple, post, pieces: list) -> int:
    """Append the table of e's morphism part on fns, followed by post, to
    pieces, and return the size of its domain.

    post is a table out of e applied to the codomains, the identity range
    when the caller composes with nothing.  The pieces are laid end to
    end once, by the caller, so a table is copied once however deep the
    sums that hold it.  A sum hands each part its slice of post, the
    identity's slices being the ranges of the parts' offsets; a product
    or power maps the rows of its last factor through post, each row a
    piece; every other node is built and then composed with post.  A
    piece is a step-1 range, bytes or a tuple, bytes whenever post is.
    """
    kind = type(e)
    if kind is Identity or kind is Projection:
        slot = e.slot if kind is Projection else 0
        _need(fns, slot + 1, e)
        return _write(fns[slot], post, pieces)
    if kind is Constant:
        n = e.value.size
        pieces.append(then_table(range(n), post))
        return n
    if kind is Sum:
        cods = tuple([f.cod.size for f in fns])
        sizes = [_size(p, cods) for p in e.parts]
        dom = 0
        for p, part in zip(e.parts, sum_slices(post, sizes)):
            dom += _mor(p, fns, part, pieces)
        return dom
    if kind is Product or kind is Power:
        if kind is Product:
            mors = [_fn(p, fns) for p in e.parts]
        else:
            # the base's map once, repeated; a zeroth power never reads it
            mors = [_fn(e.base, fns)] * e.exponent if e.exponent else []
        pieces += product_rows(mors, post)
        return prod(m.dom.size for m in mors)
    if kind is Compose:
        vals = tuple([eval_functor_mor(g, fns) for g in e.inner])
        return _mor(e.outer, vals, post, pieces)
    if kind is SymContainer:
        _need(fns, 1, e)
        return _write(_sym_map(e.arity, fns[0]), post, pieces)
    if kind is MuParam:
        _need(fns, 1, e)
        from . import iteration

        return _write(iteration.mu_parameterized_map(e, fns[0]), post, pieces)
    raise ShapeMismatch(f"unknown expression node {kind.__name__}")


def _write(f: FiniteFn, post, pieces: list) -> int:
    """Append f's table followed by post to pieces; return the size of
    f's domain."""
    pieces.append(then_table(f.table, post))
    return f.dom.size


def _multisets(n: int, k: int) -> int:
    """|X**k / S_k| for |X| = n: the multisets of k elements of X."""
    return comb(n + k - 1, k) if n else int(k == 0)


def _sym_map(k: int, f: FiniteFn) -> FiniteFn:
    """Each multiset of k elements of f.dom to the multiset of its images.

    Multisets are numbered as sorted k-tuples in lexicographic order, the
    order of their orbits' least members in the mixed-radix layout of
    X**k.  Over n values, the sorted tuple a is the k-subset {a_i + i} of
    n + k - 1 values, and the combinatorial number system ranks it as
    _multisets(n, k) - 1 - sum_i C(n + k - 2 - a_i - i, k - i).
    """
    n = f.cod.size
    weights = [[comb(n + k - 2 - v - i, k - i) for v in range(n)] for i in range(k)]
    last = _multisets(n, k) - 1
    image, weight = f.table.__getitem__, list.__getitem__
    table = [
        last - sum(map(weight, weights, sorted(map(image, ms))))
        for ms in combinations_with_replacement(range(f.dom.size), k)
    ]
    return FiniteFn(FiniteSet(len(table)), FiniteSet(last + 1), table)
