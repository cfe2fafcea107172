"""Finite sets and functions with canonical integer elements.

Elements of a set of size n are the indices 0..n-1, so a set is its size
alone.

Sums and products of sets have one layout each, fixed by their sizes
alone.  A sum lays its parts out block by block: part k starts at the sum
of the sizes before it.  A product numbers its tuples in mixed radix, the
first component least significant, so (v_0, v_1, ...) is
v_0 + n_0 * (v_1 + n_1 * (...)).  A power X**n is the product of n
copies of X, and a container, the sum over its operations of
X**|arity|, is laid out by the two together.  Maps are built as whole
tables in these layouts (sum_slices, product_rows), each followed by a
post table, so a map and what it is composed with come out as one table.

A table is one of three things: a step-1 range inside its codomain, bytes
(only when every value is below 256), or a tuple.  FiniteFn stores bytes
whenever its codomain has at most 256 elements, and a table followed by a
bytes post is bytes again, so a fold into a small algebra is built,
composed and laid end to end by C loops over bytes.  The three read alike
by index, slice, len and iteration; only this module tells them apart.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import ShapeMismatch


class FiniteSet:
    """A finite set presented as {0, ..., size-1}."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 0:
            raise ShapeMismatch(f"negative set size {size}")
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSet is immutable")

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.size == other.size

    def __hash__(self):
        return hash(("FiniteSet", self.size))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    def __repr__(self):
        return f"FiniteSet({self.size})"


class FiniteFn:
    """A total function between finite sets, stored as a lookup table.

    The table is a step-1 range inside the codomain, bytes when the
    codomain has at most 256 elements, or else a tuple: identities and the
    inclusions of block layouts stay ranges, so composing, summing and
    multiplying them costs O(1).  Equality and hashing go by value.
    """

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FiniteSet, cod: FiniteSet, table: Sequence[int]):
        # a step-1 range lies in the codomain exactly when its endpoints do;
        # it is kept as it is, and any other table becomes bytes into a
        # codomain of at most 256 elements, else a tuple
        in_cod = (
            isinstance(table, range)
            and table.step == 1
            and (not table or (table.start >= 0 and table.stop <= cod.size))
        )
        if not in_cod:
            try:
                table = bytes(table) if cod.size <= 256 else tuple(table)
            except ValueError:  # a value outside 0..255, named below
                table = tuple(table)
        if len(table) != dom.size:
            raise ShapeMismatch(
                f"table of length {len(table)} for domain of size {dom.size}"
            )
        if type(table) is bytes:
            # what is left once the codomain's values are deleted, in C
            outside = table.translate(None, bytes(range(cod.size)))
        else:
            outside = not in_cod and table and (
                min(table) < 0 or max(table) >= cod.size
            )
        if outside:
            bad = next(v for v in table if not 0 <= v < cod.size)
            raise ShapeMismatch(
                f"table value {bad} outside codomain of size {cod.size}"
            )
        _init(self, dom, cod, table)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteFn is immutable")

    @staticmethod
    def unchecked(dom: FiniteSet, cod: FiniteSet, table: Sequence[int]) -> "FiniteFn":
        """A map on a table its caller vouches for, built without checks.

        The table must be a step-1 range, bytes or a tuple of dom.size
        values in cod; bytes only when every value is below 256.
        """
        out = object.__new__(FiniteFn)
        _init(out, dom, cod, table)
        return out

    @staticmethod
    def identity(x: FiniteSet) -> "FiniteFn":
        return FiniteFn(x, x, range(x.size))

    @staticmethod
    def constant(dom: FiniteSet, cod: FiniteSet, value: int) -> "FiniteFn":
        return FiniteFn(dom, cod, [value] * dom.size)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, g: "FiniteFn") -> "FiniteFn":
        """Left-to-right composition: (f.then(g))(x) = g(f(x)).

        Every value comes from g's table, so the result needs no check.
        """
        if self.cod.size != g.dom.size:
            raise ShapeMismatch(
                f"cannot compose: codomain {self.cod.size} vs domain {g.dom.size}"
            )
        table = then_table(self.table, g.table)
        return FiniteFn.unchecked(self.dom, g.cod, table)

    def is_injective(self) -> bool:
        table = self.table
        return isinstance(table, range) or len(set(table)) == self.dom.size

    def is_bijection(self) -> bool:
        return self.dom.size == self.cod.size and self.is_injective()

    def inverse(self) -> "FiniteFn":
        if not self.is_bijection():
            raise ShapeMismatch("only bijections invert")
        inv = [0] * self.cod.size
        for x, v in enumerate(self.table):
            inv[v] = x
        return FiniteFn(self.cod, self.dom, inv)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFn)
            and self.dom == other.dom
            and self.cod == other.cod
            and (
                self.table == other.table
                if type(self.table) is type(other.table)
                else tuple(self.table) == tuple(other.table)
            )
        )

    def __hash__(self):
        return hash(("FiniteFn", self.dom.size, self.cod.size, tuple(self.table)))

    def __repr__(self):
        return f"FiniteFn({self.dom.size}->{self.cod.size}, {list(self.table)})"

    def to_json(self):
        """The payload form: a tuple or bytes table goes out as it is, a range
        as a list; cli.render_json writes bytes as a list of ints."""
        table = self.table
        if isinstance(table, range):
            table = list(table)
        return {"size": self.cod.size, "table": table}


def _init(fn: FiniteFn, dom: FiniteSet, cod: FiniteSet, table) -> None:
    object.__setattr__(fn, "dom", dom)
    object.__setattr__(fn, "cod", cod)
    object.__setattr__(fn, "table", table)


def quotient_pairs(base: FiniteSet, pairs: Iterable[tuple]) -> tuple:
    """Quotient base by the equivalence closure of pairs, unchecked.

    The pairs must lie in base.  Returns (classes, projection) where classes
    are ordered by their least member and the projection sends each element
    to its class index.

    Union-find keeps the smaller index as the root, so every element's
    parent is at most the element and each root is its class's least
    member; one ascending pass then numbers the classes.
    """
    parent = list(range(base.size))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    proj = [0] * base.size
    count = 0
    for x, p in enumerate(parent):
        if p == x:
            proj[x] = count
            count += 1
        else:
            proj[x] = proj[p]
    classes = FiniteSet(count)
    return classes, FiniteFn(base, classes, proj)


def then_table(table: Sequence[int], post: Sequence[int]) -> Sequence[int]:
    """post[v] for each value v of table: table followed by post.

    A step-1 range from 0 sends every value to itself, so table comes back
    as it is; a step-1 range table takes post's slice.  Into a bytes post
    the result is bytes: a translation when post has at most 256 entries,
    so every value of table is a byte, else a lookup per entry.  Anything
    else is a tuple.
    """
    if isinstance(post, range) and post.start == 0 and post.step == 1:
        return table
    if isinstance(table, range) and table.step == 1:
        return post[table.start : table.stop]
    if type(post) is bytes:
        if len(post) <= 256:
            return bytes(table).translate(post.ljust(256, b"\0"))
        return bytes(map(post.__getitem__, table))
    return tuple(map(post.__getitem__, table))


def concat_tables(tables: Sequence[Sequence[int]]) -> Sequence[int]:
    """The tables laid end to end.

    Empty tables aside: one table comes back as it is, bytes join into
    bytes and contiguous step-1 ranges into one range; anything else is
    copied into a tuple, and no table at all is ().
    """
    tables = [t for t in tables if t]
    if len(tables) == 1:
        return tables[0]
    if tables and all(type(t) is bytes for t in tables):
        return b"".join(tables)
    joined = None
    for t in tables:
        if not (isinstance(t, range) and t.step == 1) or (
            joined and joined.stop != t.start
        ):
            return tuple(chain.from_iterable(tables))
        joined = range(joined.start, t.stop) if joined else t
    return joined or ()


def sum_slices(post: Sequence[int], sizes: Iterable[int]) -> Iterator[Sequence[int]]:
    """post cut into consecutive slices of the given sizes.

    A sum lays its parts out block by block, so a map into a sum followed
    by post is, part by part, the map into part k followed by slice k, and
    its table is those tables laid end to end.  With post the identity
    range, slice k is the range of part k's offsets.
    """
    offset = 0
    for n in sizes:
        yield post[offset : offset + n]
        offset += n


def product_rows(fns: Sequence[FiniteFn], post: Sequence[int]) -> list:
    """Table of the product of maps in the mixed-radix layout, then post,
    as pieces to lay end to end, so a caller that lays it after other
    tables copies it once.

    Factor k is digit k, the first least significant: the entry at digits
    (d_0, d_1, ...) is post at the sum of W_k * fns[k](d_k), W_k the
    product of the codomain sizes before k.  The plain product map is the
    case where post is the identity range.

    When every factor but the last is an identity, the leading digits run
    through all W values (W the product of their sizes) under each value of
    the last digit, so a step-1 range(s, e) there gives post's slice
    W*s:W*e.  Otherwise the table grows one factor at a time: value v of
    factor k contributes the table so far followed by the slice of W_k
    values at W_k * v, the shift by W_k * v for every factor but the last
    and post's slice for the last, so post is read once per entry of a
    row.  The rows are built once per codomain value when the factor's
    table is longer than its codomain; the last factor's rows are the
    pieces.
    """
    weight = 1
    for f in fns[:-1]:
        if not (isinstance(f.table, range) and f.table == range(f.cod.size)):
            break
        weight *= f.cod.size
    else:
        last = fns[-1].table if fns else range(1)
        if isinstance(last, range) and last.step == 1:
            return [post[weight * last.start : weight * last.stop]]
    if len(fns) == 1:
        return [then_table(fns[0].table, post)]
    table, weight = fns[0].table, fns[0].cod.size
    for k in range(1, len(fns)):
        if k > 1:
            table = concat_tables(rows)
        values, n = fns[k].table, fns[k].cod.size
        out = post if k == len(fns) - 1 else range(weight * n)
        if len(values) > n:
            # values repeat: build each row once per value
            built = [
                then_table(table, out[weight * v : weight * (v + 1)])
                for v in range(n)
            ]
            rows = list(map(built.__getitem__, values))
        else:
            rows = [
                then_table(table, out[weight * v : weight * (v + 1)])
                for v in values
            ]
        weight *= n
    return rows
