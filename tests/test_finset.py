import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muiter.errors import ShapeMismatch
from muiter.finset import (
    FiniteFn,
    FiniteSet,
    concat_tables,
    product_rows,
    then_table,
)
from muiter.functors import Product, Projection, Sum, eval_functor_mor
from reference import (
    Relation,
    kernel,
    product_decode,
    product_encode,
    quotient,
    sum_decode,
    sum_encode,
)


def product_table(fns, post=None):
    """The product map's table: its rows laid end to end, followed by post,
    the identity range of the product when none is given."""
    if post is None:
        post = range(math.prod(f.cod.size for f in fns))
    return concat_tables(product_rows(fns, post))


def all_functions(dom: FiniteSet, cod: FiniteSet):
    for table in itertools.product(range(cod.size), repeat=dom.size):
        yield FiniteFn(dom, cod, table)


def test_finite_set_basics():
    a = FiniteSet(3)
    assert list(a) == [0, 1, 2]
    assert len(a) == 3
    assert 2 in a and 3 not in a
    assert FiniteSet.__slots__ == ("size",)  # a set is its size alone
    assert a == FiniteSet(3)
    assert hash(a) == hash(FiniteSet(3))
    assert a != FiniteSet(4)


def test_finite_set_immutable():
    a = FiniteSet(2)
    with pytest.raises(AttributeError):
        a.size = 5


def test_finite_fn_validation():
    a, b = FiniteSet(2), FiniteSet(3)
    with pytest.raises(ShapeMismatch):
        FiniteFn(a, b, (0,))
    with pytest.raises(ShapeMismatch):
        FiniteFn(a, b, ())
    # a value equal to the codomain size, or negative; the first one is named
    cases = [((0, 3), 3), ((3, 0), 3), ((-1, 0), -1), ((0, -5), -5), ((-1, 3), -1)]
    for table, first_bad in cases:
        with pytest.raises(ShapeMismatch, match=f"table value {first_bad} outside"):
            FiniteFn(a, b, table)
    with pytest.raises(ShapeMismatch):
        FiniteFn(FiniteSet(1), FiniteSet(0), (0,))
    fn = FiniteFn(a, b, (2, 0))
    assert fn(0) == 2 and fn(1) == 0
    # a bytes or tuple table is handed over as it is, a range as a list
    assert fn.to_json() == {"size": 3, "table": b"\x02\x00"}
    wide = FiniteFn(a, FiniteSet(300), (299, 0))
    assert wide.to_json() == {"size": 300, "table": (299, 0)}
    assert FiniteFn.identity(b).to_json() == {"size": 3, "table": [0, 1, 2]}


def test_range_tables_are_checked_by_their_endpoints_like_any_table():
    # every range of length <= 4 with start, stop in -2..6 and step -2..2,
    # into codomains of size 0..4: same verdict and message as its tuple;
    # a step-1 range inside the codomain is kept, anything else is bytes
    for start, stop, step, size in itertools.product(
        range(-2, 7), range(-2, 7), (-2, -1, 1, 2), range(5)
    ):
        r = range(start, stop, step)
        dom, cod = FiniteSet(len(r)), FiniteSet(size)
        try:
            want = FiniteFn(dom, cod, tuple(r))
        except ShapeMismatch as e:
            with pytest.raises(ShapeMismatch, match=f"^{e}$"):
                FiniteFn(dom, cod, r)
        else:
            got = FiniteFn(dom, cod, r)
            kept = step == 1 and all(0 <= v < size for v in r)
            assert got == want and type(got.table) is (range if kept else bytes)
    assert FiniteFn.identity(FiniteSet(3)).table == range(3)


def test_range_and_tuple_tables_are_equal_by_value():
    a, b = FiniteSet(3), FiniteSet(5)
    pairs = [
        (FiniteFn.identity(a), FiniteFn(a, a, (0, 1, 2))),
        (FiniteFn(a, b, range(2, 5)), FiniteFn(a, b, [2, 3, 4])),
        (FiniteFn.identity(FiniteSet(0)), FiniteFn(FiniteSet(0), FiniteSet(0), ())),
        (FiniteFn(a, FiniteSet(300), range(2, 5)), FiniteFn(a, FiniteSet(300), [2, 3, 4])),
    ]
    for ranged, tupled in pairs:
        # bytes into at most 256 values, else a tuple
        narrow = tupled.cod.size <= 256
        assert type(ranged.table) is range
        assert type(tupled.table) is (bytes if narrow else tuple)
        assert ranged == tupled and tupled == ranged
        assert hash(ranged) == hash(tupled)
        assert len({ranged, tupled}) == 1
    assert FiniteFn(a, b, range(2, 5)) != FiniteFn(a, b, (2, 3, 3))
    assert FiniteFn(a, b, range(0, 3)) != FiniteFn(a, FiniteSet(4), range(0, 3))


def test_composition_and_identity():
    a, b, c = FiniteSet(2), FiniteSet(3), FiniteSet(2)
    f = FiniteFn(a, b, (1, 2))
    g = FiniteFn(b, c, (0, 1, 1))
    fg = f.then(g)
    assert fg.dom == a and fg.cod == c
    assert tuple(fg.table) == (1, 1)
    assert FiniteFn.identity(a).then(f) == f
    assert f.then(FiniteFn.identity(b)) == f
    with pytest.raises(ShapeMismatch):
        f.then(f)  # cod of size 3 against dom of size 2


def test_then_an_identity_keeps_the_table():
    a, b = FiniteSet(3), FiniteSet(4)
    f = FiniteFn(a, b, (3, 0, 3))
    assert f.then(FiniteFn.identity(b)).table is f.table
    # an inclusion of a prefix is no identity: its values are looked up
    g = FiniteFn(b, FiniteSet(5), range(4))
    assert tuple(f.then(g).table) == (3, 0, 3) and f.then(g).cod == FiniteSet(5)


@st.composite
def tables(draw, n: int, c: int):
    """A table of length n into {0..c-1}: a step-1 range (identity, prefix,
    shifted or empty) where one fits, a range of another step, or a tuple."""
    kinds = ["tuple"] if c or not n else []
    if n <= c:
        kinds += ["range", "reversed"]
    if 2 * n <= c + 1:
        kinds.append("stepped")
    kind = draw(st.sampled_from(kinds))
    if kind == "range":
        start = draw(st.integers(0, c - n))
        return range(start, start + n)
    if kind == "reversed":
        top = draw(st.integers(n - 1, c - 1)) if n else draw(st.integers(-2, c))
        return range(top, top - n, -1)
    if kind == "stepped":
        start = draw(st.integers(0, max(c - 2 * n + 1, 0)))
        return range(start, start + 2 * n, 2)
    return tuple([draw(st.integers(0, c - 1)) for _ in range(n)])


@st.composite
def blocks(draw):
    """A map built unchecked: an identity, an inclusion of a prefix or of a
    shifted run, or any table."""
    c = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["identity", "prefix", "shifted", "any"]))
    if kind == "identity":
        return FiniteFn.unchecked(FiniteSet(c), FiniteSet(c), range(c))
    if kind != "any":
        n = draw(st.integers(0, c))
        start = 0 if kind == "prefix" else draw(st.integers(0, c - n))
        return FiniteFn.unchecked(FiniteSet(n), FiniteSet(c), range(start, start + n))
    n = draw(st.integers(0, 4 if c else 0))
    return FiniteFn.unchecked(FiniteSet(n), FiniteSet(c), draw(tables(n, c)))


def product_oracle(fns) -> tuple:
    """The product of maps one element at a time, through the codec."""
    doms = [f.dom.size for f in fns]
    cods = [f.cod.size for f in fns]
    images = (
        [fn.table[d] for fn, d in zip(fns, product_decode(doms, x))]
        for x in range(math.prod(doms))
    )
    return tuple(product_encode(cods, values) for values in images)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_range_fast_paths_match_the_per_element_tables(data):
    fns = data.draw(st.lists(blocks(), max_size=3))
    cods = [b.cod.size for b in fns]
    want = tuple(
        sum_encode(cods, k, v) for k, fn in enumerate(fns) for v in fn.table
    )
    # the sum of the maps, each read as one argument of the expression
    sum_of = Sum(tuple(map(Projection, range(len(fns)))))
    assert tuple(eval_functor_mor(sum_of, fns).table) == want
    assert tuple(product_table(fns)) == product_oracle(fns)
    b = data.draw(st.integers(0, 4))
    a = data.draw(st.integers(0, 4 if b else 0))
    c = b if data.draw(st.booleans()) else data.draw(st.integers(1 if b else 0, 4))
    f = FiniteFn(FiniteSet(a), FiniteSet(b), data.draw(tables(a, b)))
    g = FiniteFn(FiniteSet(b), FiniteSet(c), data.draw(tables(b, c)))
    assert tuple(f.then(g).table) == tuple(g.table[v] for v in f.table)


# codomain sizes on both sides of the bytes bound, and the empty one
WIDE = [0, 1, 255, 256, 257]


def drawn_table(data, n: int, c: int):
    """A table of length n into {0..c-1}: a step-1 range where one fits,
    bytes where every value is below 256, or a tuple."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    values = [rng.randrange(c) for _ in range(n)]
    kinds = ["tuple"] + ["bytes"] * (max(values, default=0) < 256) + ["range"] * (n <= c)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "range":
        start = data.draw(st.integers(0, c - n))
        return range(start, start + n)
    return bytes(values) if kind == "bytes" else tuple(values)


def drawn_fn(data, n: int, c: int) -> FiniteFn:
    """A map n -> c through the constructor, checked against the table rule:
    a step-1 range stays, anything else is bytes into at most 256 values."""
    table = drawn_table(data, n, c)
    fn = FiniteFn(FiniteSet(n), FiniteSet(c), table)
    assert tuple(fn.table) == tuple(table)
    assert type(fn.table) is (range if type(table) is range else bytes if c <= 256 else tuple)
    return fn


def assert_table(got, want, post):
    """got has want's values; bytes holds only values below 256, and a
    table into a bytes post is bytes unless empty."""
    assert tuple(got) == tuple(want)
    assert type(got) in (range, bytes, tuple)
    assert type(got) is not range or got.step == 1
    assert type(post) is not bytes or type(got) is bytes or not got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bytes_tuple_and_range_tables_match_the_per_element_tables(data):
    # then: f followed by g, across the bytes bound
    b = data.draw(st.sampled_from(WIDE))
    c = data.draw(st.sampled_from(WIDE[1:] if b else WIDE))
    a = data.draw(st.integers(0, 6 if b else 0))
    f, g = drawn_fn(data, a, b), drawn_fn(data, b, c)
    composite = [g.table[v] for v in f.table]
    assert_table(then_table(f.table, g.table), composite, g.table)
    assert_table(f.then(g).table, composite, g.table)

    # a product and a sum of unchecked maps, one with a wide codomain and
    # the rest into at most 2 values; empty tables of every kind among them
    fns = []
    for k in range(data.draw(st.integers(1, 3))):
        c = data.draw(st.sampled_from(WIDE if k == 0 else [0, 1, 2]))
        n = data.draw(st.integers(0, 3 if c else 0))
        fns.append(FiniteFn.unchecked(FiniteSet(n), FiniteSet(c), drawn_table(data, n, c)))
    fns = data.draw(st.permutations(fns))
    cods = [fn.cod.size for fn in fns]
    product = product_oracle(fns)
    assert tuple(product_table(fns)) == product
    post = drawn_fn(data, math.prod(cods), data.draw(st.sampled_from(WIDE[1:])))
    want = [post.table[v] for v in product]
    assert_table(product_table(fns, post.table), want, post.table)
    tables = [fn.table for fn in fns] + [post.table, ()]
    assert_table(concat_tables(tables), [v for t in tables for v in t], None)
    if all(type(t) is bytes for t in tables if t) and any(tables):
        assert type(concat_tables(tables)) is bytes

    # the product beside each factor, followed by a map into a narrow or a
    # wide codomain
    parts = (Product(tuple(map(Projection, range(len(fns))))),) + tuple(
        map(Projection, range(len(fns)))
    )
    sizes = [math.prod(cods)] + cods
    laid = [sum_encode(sizes, 0, v) for v in product] + [
        sum_encode(sizes, k + 1, v) for k, fn in enumerate(fns) for v in fn.table
    ]
    g = drawn_fn(data, sum(sizes), data.draw(st.sampled_from(WIDE[1:])))
    got = eval_functor_mor(Sum(parts), fns, then=g)
    assert_table(got.table, [g.table[v] for v in laid], g.table)


@st.composite
def repeating_fns(draw):
    """A map whose table is longer than its codomain, or an empty one."""
    c = draw(st.integers(1, 3))
    n = draw(st.sampled_from([0, *range(c + 1, 7)]))
    return FiniteFn(FiniteSet(n), FiniteSet(c), draw(tables(n, c)))


@settings(max_examples=300, deadline=None)
@given(st.lists(repeating_fns(), min_size=1, max_size=3))
def test_product_rows_match_the_per_element_tables(fns):
    # each nonempty factor repeats its values, so it builds one row per
    # value; an empty one empties the product
    assert tuple(product_table(fns)) == product_oracle(fns)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_composition_associative(data):
    sizes = [data.draw(st.integers(1, 4)) for _ in range(4)]
    sets = [FiniteSet(n) for n in sizes]
    fns = []
    for dom, cod in zip(sets, sets[1:]):
        table = [data.draw(st.integers(0, cod.size - 1)) for _ in range(dom.size)]
        fns.append(FiniteFn(dom, cod, table))
    f, g, h = fns
    assert f.then(g).then(h) == f.then(g.then(h))


def test_injective_surjective_bijective_inverse():
    a = FiniteSet(3)
    perm = FiniteFn(a, a, (2, 0, 1))
    assert perm.is_injective() and set(perm.table) == set(a) and perm.is_bijection()
    assert tuple(perm.inverse().table) == (1, 2, 0)
    assert perm.then(perm.inverse()) == FiniteFn.identity(a)
    squash = FiniteFn(a, FiniteSet(2), (0, 0, 1))
    assert set(squash.table) == set(squash.cod) and not squash.is_injective()
    with pytest.raises(ShapeMismatch):
        squash.inverse()
    empty_into = FiniteFn(FiniteSet(0), a, ())
    assert empty_into.is_injective() and set(empty_into.table) != set(a)


def test_constant_fn():
    c = FiniteFn.constant(FiniteSet(3), FiniteSet(2), 1)
    assert tuple(c.table) == (1, 1, 1)
    assert tuple(FiniteFn.constant(FiniteSet(0), FiniteSet(2), 0).table) == ()


# -- quotients ---------------------------------------------------------------


def naive_closure(n: int, pairs) -> list:
    """Reference partition: reflexive-symmetric-transitive closure by sweeps."""
    related = {(x, x) for x in range(n)}
    for p in pairs:
        related.add(p)
        related.add((p[1], p[0]))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(related), repeat=2):
            if b == c and (a, d) not in related:
                related.add((a, d))
                changed = True
    classes = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        cls = sorted(y for y in range(n) if (x, y) in related)
        classes.append(tuple(cls))
        seen.update(cls)
    return classes


def test_quotient_matches_naive_closure_exhaustive():
    # every relation on up to 4 elements given by up to 2 generating pairs
    for n in range(5):
        base = FiniteSet(n)
        all_pairs = list(itertools.product(range(n), repeat=2))
        for k in range(3):
            for chosen in itertools.combinations(all_pairs, k):
                classes, proj = quotient(base, Relation(base, chosen))
                expected = naive_closure(n, chosen)
                assert classes.size == len(expected)
                got = {}
                for x in range(n):
                    got.setdefault(proj(x), []).append(x)
                got_classes = [tuple(got[c]) for c in sorted(got)]
                assert got_classes == expected


def test_quotient_classes_ordered_by_least_member():
    base = FiniteSet(5)
    classes, proj = quotient(base, Relation(base, [(3, 1), (4, 2)]))
    assert classes.size == 3
    # class of 0 first, then class {1,3}, then class {2,4}
    assert tuple(proj.table) == (0, 1, 2, 1, 2)


def test_quotient_of_empty_relation_is_identity():
    base = FiniteSet(4)
    classes, proj = quotient(base, Relation(base, []))
    assert classes.size == 4
    assert proj == FiniteFn.identity(base)


def test_kernel_roundtrip():
    a = FiniteSet(4)
    p = FiniteFn(a, FiniteSet(2), (0, 1, 0, 1))
    ker = kernel(p)
    assert (0, 2) in ker and (1, 3) in ker and (0, 0) in ker
    assert (0, 1) not in ker
    classes, proj = quotient(a, ker)
    assert classes.size == 2
    assert tuple(proj.table) == (0, 1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quotient_by_kernel_recovers_image_size(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 4))
    table = [data.draw(st.integers(0, m - 1)) for _ in range(n)]
    p = FiniteFn(FiniteSet(n), FiniteSet(m), table)
    classes, proj = quotient(p.dom, kernel(p))
    assert classes.size == len(set(table))
    # the projection identifies exactly what p identifies
    for x, y in itertools.product(range(n), repeat=2):
        assert (proj(x) == proj(y)) == (table[x] == table[y])


def test_relation_requires_pairs_in_range():
    base = FiniteSet(2)
    with pytest.raises(ShapeMismatch):
        Relation(base, [(0, 2)])


# -- indexed structure -------------------------------------------------------


def test_exponential_round_trip():
    # X**A is the product of |A| copies of X
    sizes = [3, 3]
    seen = set()
    for idx in range(9):
        table = product_decode(sizes, idx)
        assert product_encode(sizes, table) == idx
        seen.add(table)
    assert seen == set(itertools.product(range(3), repeat=2))


def test_exponential_empty_cases():
    # one empty table into any set; no table from a nonempty set into the empty one
    for n, k, size in ((0, 0, 1), (0, 2, 0), (5, 0, 1)):
        assert len(list(itertools.product(range(n), repeat=k))) == size
        assert len(product_table([FiniteFn.identity(FiniteSet(n))] * k)) == size


def test_cartesian_round_trip():
    sizes = [2, 3, 2]
    seen = set()
    for idx in range(12):
        vals = product_decode(sizes, idx)
        assert product_encode(sizes, vals) == idx
        seen.add(vals)
    assert seen == set(itertools.product(range(2), range(3), range(2)))
    assert product_decode(sizes, 1) == (1, 0, 0)
    assert product_decode(sizes, 2) == (0, 1, 0)
    assert len(product_table([])) == 1
    ids = [FiniteFn.identity(FiniteSet(n)) for n in (0, 3)]
    assert len(product_table(ids)) == len(product_table(ids[::-1])) == 0


def test_tagged_sum_round_trip():
    sizes = [2, 0, 3]
    for idx in range(5):
        tag, val = sum_decode(sizes, idx)
        assert sum_encode(sizes, tag, val) == idx
    assert sum_decode(sizes, 0) == (0, 0)
    assert sum_decode(sizes, 2) == (2, 0)
    with pytest.raises(ShapeMismatch):
        sum_decode(sizes, 5)
