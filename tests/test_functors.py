import itertools
import math
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muiter.checks import (
    apply_diagram,
    check_cocone_laws,
    check_functor_laws,
    preserves_chain_colimit,
)
from muiter.colimit import Diagram, subdiagram_colimit
from muiter.errors import BudgetExceeded, ShapeMismatch
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import (
    BUILTIN_GROUPOIDS,
    Compose,
    Constant,
    Container,
    FunctorExpr,
    Identity,
    MuParam,
    Power,
    Product,
    Projection,
    Sum,
    SymContainer,
    _size,
    eval_functor,
    eval_functor_mor,
    expr_arity,
)
from muiter.iteration import NESTED_BUDGET
from muiter.signature import Signature
from reference import (
    Relation,
    container_blocks,
    container_decode,
    container_encode,
    product_decode,
    product_encode,
    quotient,
    sum_decode,
    sum_encode,
)

BIN = Signature.of(0, 2, labels=["leaf", "node"])

POLY = Sum((Constant(FiniteSet(1)), Product((Identity(), Identity()))))


def all_functions(a: int, b: int):
    for table in itertools.product(range(b), repeat=a):
        yield FiniteFn(FiniteSet(a), FiniteSet(b), table)


# -- object parts --------------------------------------------------------------


def test_eval_object_parts():
    x = FiniteSet(3)
    assert eval_functor(Identity(), (x,)) == x
    assert eval_functor(Projection(1), (x, FiniteSet(2))) == FiniteSet(2)
    assert eval_functor(Constant(FiniteSet(7)), (x,)) == FiniteSet(7)
    assert eval_functor(POLY, (x,)).size == 1 + 9
    assert eval_functor(Product((Identity(),) * 3), (x,)).size == 27
    assert eval_functor(Sum(()), (x,)).size == 0
    assert eval_functor(Product(()), (x,)).size == 1
    assert eval_functor(Container(BIN), (x,)).size == 1 + 9
    two_then_poly = Compose(POLY, (Product((Identity(), Identity())),))
    assert eval_functor(two_then_poly, (x,)).size == 1 + 81
    four_or_two = Sum((Constant(FiniteSet(4)), Identity()))
    assert eval_functor(four_or_two, (FiniteSet(2),)) == FiniteSet(6)


def test_expr_arity():
    assert expr_arity(Identity()) == 1
    assert expr_arity(Constant(FiniteSet(2))) == 0
    assert expr_arity(Projection(1)) == 2
    assert expr_arity(Sum((Identity(), Projection(1)))) == 2
    assert expr_arity(Compose(POLY, (Projection(1),))) == 2


def test_eval_needs_enough_arguments():
    with pytest.raises(ShapeMismatch):
        eval_functor(Identity(), ())
    with pytest.raises(ShapeMismatch):
        eval_functor(Projection(1), (FiniteSet(2),))


@pytest.mark.parametrize(
    "expr, env, message",
    [
        (Identity(), (), "Identity needs 1 arguments, got 0"),
        (Projection(2), (FiniteSet(1),), "Projection needs 3 arguments, got 1"),
        (
            Sum((Constant(FiniteSet(1)), Product((Identity(), Projection(1))))),
            (FiniteSet(2),),
            "Projection needs 2 arguments, got 1",
        ),
        (Power(Container(BIN), 2), (), "Identity needs 1 arguments, got 0"),
        (
            Compose(Projection(1), (Identity(),)),
            (FiniteSet(2),),
            "Projection needs 2 arguments, got 1",
        ),
        (Sum((Constant(FiniteSet(1)), Identity())), (), "Identity needs 1 arguments, got 0"),
        (Product((Identity(), Constant(FiniteSet(1)))), (), "Identity needs 1 arguments, got 0"),
        ("X", (FiniteSet(2),), "unknown expression node str"),
        (Sum((Identity(), 3)), (FiniteSet(2),), "unknown expression node int"),
        (Compose(Identity(), ("X",)), (FiniteSet(2),), "unknown expression node str"),
    ],
    ids=[
        "identity", "projection", "nested", "container", "compose",
        "sum-identity", "product-identity", "top", "part", "inner",
    ],
)
def test_eval_keeps_its_shape_mismatch_messages(expr, env, message):
    with pytest.raises(ShapeMismatch) as raised:
        eval_functor(expr, env)
    assert str(raised.value) == message



class TooMany(Exception):
    """An enumeration past ENUMERATED elements, left unchecked."""


ENUMERATED = 3000


def _bounded(elements) -> list:
    out = list(itertools.islice(elements, ENUMERATED + 1))
    if len(out) > ENUMERATED:
        raise TooMany
    return out


def elements(e, env: tuple) -> list:
    """The elements of e applied to the lists in env, one by one: tagged
    for a sum, tuples for a product or power, sorted tuples of
    positions for sym, and the stationary stage of a fixpoint's chain."""
    kind = type(e)
    if kind is Identity:
        return env[0]
    if kind is Projection:
        return env[e.slot]
    if kind is Constant:
        return list(range(e.value.size))
    if kind is Sum:
        return _bounded((k, x) for k, p in enumerate(e.parts) for x in elements(p, env))
    if kind is Product:
        return _bounded(itertools.product(*[elements(p, env) for p in e.parts]))
    if kind is Power:
        return _bounded(itertools.product(elements(e.base, env), repeat=e.exponent))
    if kind is SymContainer:
        positions = range(len(env[0]))
        return _bounded(itertools.combinations_with_replacement(positions, e.arity))
    if kind is Compose:
        return elements(e.outer, tuple(elements(g, env) for g in e.inner))
    if kind is MuParam:
        stage: list = []
        for _ in range(NESTED_BUDGET):
            after = elements(e.body, (env[0], stage))
            if len(after) == len(stage):
                return after
            stage = after
        raise AssertionError("the chain outran the budget the size kept to")
    raise AssertionError(f"no enumeration of {kind.__name__}")


# expressions in two arguments over every node kind; a fixpoint's body reads
# its argument as slot 0 and the fixpoint as slot 1
EXPRS = st.recursive(
    st.sampled_from([
        Identity(),
        Projection(1),
        Constant(FiniteSet(0)),
        Constant(FiniteSet(2)),
        Container(Signature.of()),
        Container(BIN),
        Container(Signature.of(0, 0, 1, 3)),
        SymContainer(0),
        SymContainer(2),
        SymContainer(3),
    ]),
    lambda parts: st.one_of(
        st.lists(parts, max_size=3).map(lambda ps: Sum(tuple(ps))),
        st.lists(parts, max_size=3).map(lambda ps: Product(tuple(ps))),
        st.builds(Power, parts, st.integers(0, 2)),
        st.builds(lambda o, a, b: Compose(o, (a, b)), parts, parts, parts),
        st.builds(MuParam, parts),
    ),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(EXPRS, st.tuples(st.integers(0, 3), st.integers(0, 3)))
@example(Compose(SymContainer(2), (Projection(1), Identity())), (2, 3))
@example(MuParam(Sum((Constant(FiniteSet(1)), Product((Projection(0), Projection(1)))))), (0, 2))
@example(MuParam(Sum((Projection(0), Product((Projection(1), Constant(FiniteSet(0))))))), (3, 1))
@example(MuParam(Sum((Projection(0), Product((Projection(1), Identity()))))), (3, 1))
@example(Container(Signature.of(0, 0, 1, 3)), (2, 0))
@example(SymContainer(3), (3, 1))
@example(Power(Projection(1), 0), (2, 0))
@example(Power(Container(BIN), 0), (0, 0))
def test_size_counts_the_elements_of_every_node_kind(e, sizes):
    try:
        size = _size(e, sizes)
    except BudgetExceeded:  # a fixpoint past its budget or the cap
        return
    try:
        listed = elements(e, tuple(list(range(n)) for n in sizes))
    except TooMany:
        return
    assert len(listed) == size


# -- morphism parts: functor laws ---------------------------------------------


# the signature functors below; Container(sig) builds a Sum, so their test
# ids name them by their constructor
CONTAINERS = {Container(BIN), Container(Signature.of(0, 0, 1, 3))}


def node_id(e) -> str:
    """A test id: the expression's node kind, or Container for a container."""
    return "Container" if e in CONTAINERS else type(e).__name__


BATTERY = [
    Identity(),
    Constant(FiniteSet(2)),
    POLY,
    Product((Identity(), Identity(), Identity())),
    Sum((Identity(), Constant(FiniteSet(1)), Identity())),
    Compose(POLY, (Sum((Constant(FiniteSet(1)), Identity())),)),
    Container(BIN),
    SymContainer(2),
    SymContainer(3),
    SymContainer(0),
    SymContainer(1),
    SymContainer(4),
]


@pytest.mark.parametrize("expr", BATTERY, ids=node_id)
def test_identity_preserved(expr):
    for n in range(4):
        x = FiniteSet(n)
        got = eval_functor_mor(expr, (FiniteFn.identity(x),))
        assert got == FiniteFn.identity(eval_functor(expr, (x,)))


@pytest.mark.parametrize("expr", BATTERY, ids=node_id)
def test_composition_preserved_exhaustive_small(expr):
    for a, b, c in itertools.product(range(3), repeat=3):
        for f in all_functions(a, b):
            for g in all_functions(b, c):
                lhs = eval_functor_mor(expr, (f.then(g),))
                rhs = eval_functor_mor(expr, (f,)).then(eval_functor_mor(expr, (g,)))
                assert lhs == rhs


# one expression of each kind whose map of identities is laid out in blocks
# of ranges; Projection reads the second argument
IDENTITY_RANGES = [
    Identity(),
    Projection(1),
    Constant(FiniteSet(3)),
    Sum((Constant(FiniteSet(1)), Identity())),
    Product((Identity(), Projection(1))),
    Power(Identity(), 0),
    Power(Identity(), 3),
    Container(BIN),
    Compose(POLY, (Projection(1),)),
]


@pytest.mark.parametrize(
    "expr",
    IDENTITY_RANGES,
    ids=[
        "identity", "projection", "constant", "sum", "product", "power0",
        "power3", "container", "compose",
    ],
)
@pytest.mark.parametrize("n", range(1, 5))
def test_the_map_of_identities_is_an_identity_range(expr, n):
    ids = (FiniteFn.identity(FiniteSet(n)), FiniteFn.identity(FiniteSet(5 - n)))
    got = eval_functor_mor(expr, ids)
    size = eval_functor(expr, (FiniteSet(n), FiniteSet(5 - n))).size
    assert type(got.table) is range and got.table == range(0, size)
    then = eval_functor_mor(expr, ids, then=FiniteFn.identity(FiniteSet(size)))
    assert then == got and type(then.table) is range


def test_morphism_respects_block_layout():
    f = FiniteFn(FiniteSet(2), FiniteSet(2), (1, 0))
    got = eval_functor_mor(POLY, (f,))
    # block 0 is the constant summand, then the four pairs in mixed radix
    assert got.table[0] == 0
    assert tuple(got.table[1:]) == (1 + 3, 1 + 2, 1 + 1, 1 + 0)


# -- a map followed by then, built as one table ------------------------------------


# BATTERY has a container with a nullary op, sym<swap2> and a composite;
# these add a nested fixpoint, alone and as a summand, a container with
# two nullary ops and a unary one, products of one and of no factors, a
# square and a zeroth power
FUSED = BATTERY + [
    MuParam(Sum((Projection(0), Product((Projection(1), Constant(FiniteSet(0))))))),
    Sum((Constant(FiniteSet(1)), MuParam(Projection(0)))),
    Container(Signature.of(0, 0, 1, 3)),
    Product((Identity(),)),
    Sum(()),
    Product(()),
    Power(Sum((Constant(FiniteSet(1)), Identity())), 2),
    Power(Container(BIN), 0),
]


def some_maps(a: int, b: int):
    """Every map a -> b, as tuples, and the step-1 range tables that fit."""
    yield from all_functions(a, b)
    for start in range(b - a + 1):
        yield FiniteFn(FiniteSet(a), FiniteSet(b), range(start, start + a))


@pytest.mark.parametrize("expr", FUSED, ids=node_id)
def test_a_map_followed_by_then_is_one_table_of_the_composite(expr):
    rng = random.Random(repr(expr))
    for a, b in itertools.product(range(4), repeat=2):
        fb = eval_functor(expr, (FiniteSet(b),))
        posts = [FiniteFn.identity(fb)]
        for c in (1, 3, fb.size + 2):
            if fb.size:
                table = [rng.randrange(c) for _ in range(fb.size)]
                posts.append(FiniteFn(fb, FiniteSet(c), table))
            if c >= fb.size:
                posts.append(FiniteFn(fb, FiniteSet(c), range(c - fb.size, c)))
        if not fb.size:
            posts.append(FiniteFn(fb, FiniteSet(2), ()))
        for f in some_maps(a, b):
            for g in posts:
                got = eval_functor_mor(expr, (f,), then=g)
                assert got == eval_functor_mor(expr, (f,)).then(g)
                # a step-1 range, bytes or a tuple, as FiniteFn's constructor
                # would have made; into a bytes post, bytes unless empty
                table = got.table
                assert type(table) in (range, bytes, tuple)
                assert type(table) is not range or table.step == 1
                assert type(g.table) is not bytes or type(table) is bytes or not table


def test_then_must_start_where_the_map_ends():
    f = FiniteFn.identity(FiniteSet(2))
    with pytest.raises(ShapeMismatch, match="cannot compose"):
        eval_functor_mor(POLY, (f,), then=FiniteFn.identity(FiniteSet(4)))
    with pytest.raises(ShapeMismatch, match="cannot compose"):
        eval_functor_mor(Container(BIN), (f,), then=FiniteFn.identity(FiniteSet(4)))


# -- block tables against a per-element reference ---------------------------------


def reference_sym_cocone(k, base):
    """The orbit quotient of base**k under the adjacent transpositions.

    Each transposition reindexes tables element by element, and
    union-find numbers the orbits by least member.  Returns the factor
    sizes of base**k and the map onto the orbits.
    """
    sizes = [base.size] * k
    power = FiniteSet(base.size ** k)
    pairs = []
    for s in range(k - 1):
        for enc in range(power.size):
            u = list(product_decode(sizes, enc))
            u[s], u[s + 1] = u[s + 1], u[s]
            pairs.append((enc, product_encode(sizes, u)))
    _, proj = quotient(power, Relation(power, pairs))
    return sizes, proj


def reference_mor(e, fns):
    """F(f) one element at a time, through the layouts' decode and encode."""
    if isinstance(e, Identity):
        return fns[0]
    if isinstance(e, Constant):
        return FiniteFn.identity(e.value)
    if isinstance(e, Compose):
        return reference_mor(e.outer, tuple(reference_mor(g, fns) for g in e.inner))
    if isinstance(e, Sum):
        mors = [reference_mor(p, fns) for p in e.parts]
        dom = [m.dom.size for m in mors]
        cod = [m.cod.size for m in mors]
        table = []
        for idx in range(sum(dom)):
            tag, x = sum_decode(dom, idx)
            table.append(sum_encode(cod, tag, mors[tag](x)))
        return FiniteFn(FiniteSet(sum(dom)), FiniteSet(sum(cod)), table)
    if isinstance(e, Product):
        mors = [reference_mor(p, fns) for p in e.parts]
        dom = [m.dom.size for m in mors]
        cod = [m.cod.size for m in mors]
        table = [
            product_encode(cod, [m(c) for m, c in zip(mors, product_decode(dom, x))])
            for x in range(math.prod(dom))
        ]
        return FiniteFn(FiniteSet(math.prod(dom)), FiniteSet(math.prod(cod)), table)
    if isinstance(e, Power):
        return reference_mor(Product((e.base,) * e.exponent), fns)
    f = fns[0]
    if isinstance(e, SymContainer):
        src_sizes, src = reference_sym_cocone(e.arity, f.dom)
        dst_sizes, dst = reference_sym_cocone(e.arity, f.cod)
        table = [None] * src.cod.size
        for enc in range(src.dom.size):
            args = [f(v) for v in product_decode(src_sizes, enc)]
            table[src(enc)] = dst(product_encode(dst_sizes, args))
        return FiniteFn(src.cod, dst.cod, table)
    raise NotImplementedError(type(e).__name__)


@pytest.mark.parametrize("expr", BATTERY, ids=node_id)
def test_block_tables_match_the_per_element_reference(expr):
    for a, b in itertools.product(range(4), repeat=2):
        for f in all_functions(a, b):
            assert eval_functor_mor(expr, (f,)) == reference_mor(expr, (f,))


# -- symmetric containers against an orbit oracle --------------------------------


def orbit_classes(n: int, m: int):
    """Partition of all length-n tuples over m values into sorted-tuple orbits."""
    classes = {}
    for t in itertools.product(range(m), repeat=n):
        classes.setdefault(tuple(sorted(t)), set()).add(t)
    return classes


@pytest.mark.parametrize("n", [2, 3])
def test_sym_container_counts_multisets(n):
    expr = SymContainer(BUILTIN_GROUPOIDS[f"swap{n}"])
    for m in range(5):
        assert eval_functor(expr, (FiniteSet(m),)).size == comb(m + n - 1, n)


@pytest.mark.parametrize("n", [2, 3])
def test_sym_container_classes_are_orbits(n):
    # a tuple t over base is a map n -> base, and the multiset of all n
    # positions goes to the multiset of t's entries: t's class
    positions = list(itertools.combinations_with_replacement(range(n), n))
    everything = positions.index(tuple(range(n)))
    expr = SymContainer(n)
    for m in range(4):
        base = FiniteSet(m)
        sizes, proj = reference_sym_cocone(n, base)
        seen = {}
        for enc in range(proj.dom.size):
            t = product_decode(sizes, enc)
            seen.setdefault(proj(enc), set()).add(t)
            mor = eval_functor_mor(expr, (FiniteFn(FiniteSet(n), base, t),))
            assert mor.table[everything] == proj(enc)
        expected = set(frozenset(v) for v in orbit_classes(n, m).values())
        assert set(frozenset(v) for v in seen.values()) == expected


def test_sym_container_map_acts_on_multisets():
    expr = SymContainer(2)
    f = FiniteFn(FiniteSet(3), FiniteSet(2), (1, 0, 1))
    mor = eval_functor_mor(expr, (f,))
    src_sizes, src = reference_sym_cocone(2, f.dom)
    dst_sizes, dst = reference_sym_cocone(2, f.cod)
    for enc in range(src.dom.size):
        t = product_decode(src_sizes, enc)
        u = tuple(f(v) for v in t)
        assert mor.table[src(enc)] == dst(product_encode(dst_sizes, u))


# one of each node kind; a node missing here is missing from a dispatcher's test
NODES = {
    Identity: Identity(),
    Projection: Projection(1),
    Constant: Constant(FiniteSet(2)),
    Sum: POLY,
    Product: Product((Identity(), Projection(1))),
    Power: Power(Identity(), 3),
    Compose: Compose(POLY, (Projection(1),)),
    SymContainer: SymContainer(2),
    MuParam: MuParam(Sum((Projection(0), Product((Projection(1), Constant(FiniteSet(0))))))),
}


def test_every_node_kind_is_handled_by_every_dispatcher():
    assert set(NODES) == set(FunctorExpr.__subclasses__())
    f = FiniteFn(FiniteSet(2), FiniteSet(3), (2, 0))
    for e in NODES.values():
        # each raises "unknown expression node" on a kind it does not handle
        expr_arity(e)
        fe = eval_functor(e, (f.cod, f.cod))
        assert eval_functor_mor(e, (f, f)).cod == fe
        post = FiniteFn.identity(fe)
        assert eval_functor_mor(e, (f, f), then=post) == eval_functor_mor(e, (f, f))


# the bases of the powers below: the first and the second argument, a sum, a
# container and a symmetric power
POWER_BASES = [
    Identity(),
    Projection(1),
    Sum((Constant(FiniteSet(1)), Identity())),
    Container(BIN),
    SymContainer(2),
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(POWER_BASES),
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), min_size=2, max_size=2),
    st.randoms(use_true_random=False),
)
def test_a_power_is_the_product_of_its_copies(base, n, sizes, rng):
    power, product = Power(base, n), Product((base,) * n)
    assert expr_arity(power) == expr_arity(product)
    if expr_arity(product) == 0:
        # no arguments at all: the base is never evaluated
        assert eval_functor(power, ()) == eval_functor(product, ()) == FiniteSet(1)
        assert eval_functor_mor(power, ()) == eval_functor_mor(product, ())
    fns = tuple(
        FiniteFn(FiniteSet(a), FiniteSet(b), [rng.randrange(b) for _ in range(a)])
        for a, b in sizes
    )
    doms = tuple(f.dom for f in fns)
    assert eval_functor(power, doms) == eval_functor(product, doms)
    mapped = eval_functor_mor(power, fns)
    assert mapped == eval_functor_mor(product, fns)
    c = rng.randrange(1, 4)
    post = FiniteFn(mapped.cod, FiniteSet(c), [rng.randrange(c) for _ in mapped.cod])
    assert eval_functor_mor(power, fns, then=post) == mapped.then(post)
    assert eval_functor_mor(product, fns, then=post) == mapped.then(post)


def test_container_sizes_follow_signature():
    for n in range(4):
        x = FiniteSet(n)
        assert eval_functor(Container(BIN), (x,)).size == sum(container_blocks(BIN, n))


def test_a_container_maps_like_its_sum_of_powers():
    # a container over arities a_1, ..., a_n is X^|a_1| + ... + X^|a_n|,
    # so it is sized and mapped as that sum; all-nullary ones are constants
    for arities in [(), (0,), (0, 0), (2,), (0, 2), (0, 0, 1, 3)]:
        container = Container(Signature.of(*arities))
        assert container == Sum(tuple(Power(Identity(), k) for k in arities))
        assert expr_arity(container) == int(any(arities))


@pytest.mark.parametrize(
    "sig", [BIN, Signature.of(0, 1, 3)], ids=["bin", "nullary-unary-ternary"]
)
def test_a_container_maps_like_its_codec(sig):
    # the codec names each element by its op and arguments; F(f) keeps the
    # op and maps every argument by f
    for a, b in itertools.product(range(4), repeat=2):
        for f in all_functions(a, b):
            table = []
            for idx in range(sum(container_blocks(sig, a))):
                op, args = container_decode(sig, a, idx)
                table.append(container_encode(sig, b, op, [f(x) for x in args]))
            cod = FiniteSet(sum(container_blocks(sig, b)))
            want = FiniteFn(FiniteSet(len(table)), cod, table)
            assert eval_functor_mor(Container(sig), (f,)) == want


# -- chains and preservation ---------------------------------------------------------


def inclusion_chain(sizes):
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {}
    for k in range(len(sizes) - 1):
        arrows[(k, k + 1)] = FiniteFn(
            objects[k], objects[k + 1], tuple(range(sizes[k]))
        )
    for j in range(len(sizes)):
        for i in range(j + 2, len(sizes)):
            arrows[(j, i)] = FiniteFn(objects[j], objects[i], tuple(range(sizes[j])))
    return Diagram(objects, arrows)


@pytest.mark.parametrize("expr", BATTERY, ids=node_id)
def test_preserves_chain_colimits(expr):
    chain = inclusion_chain([0, 1, 3])
    assert preserves_chain_colimit(expr, chain)
    collapsing = Diagram(
        {0: FiniteSet(2), 1: FiniteSet(1)},
        {(0, 1): FiniteFn(FiniteSet(2), FiniteSet(1), (0, 0))},
    )
    assert preserves_chain_colimit(expr, collapsing)


def test_apply_diagram_maps_objects_and_arrows():
    chain = inclusion_chain([1, 2])
    mapped = apply_diagram(POLY, chain)
    assert mapped.objects[0].size == 2
    assert mapped.objects[1].size == 5
    assert mapped.arrows[(0, 1)] == eval_functor_mor(POLY, (chain.arrows[(0, 1)],))


# -- parameterized fixpoints ----------------------------------------------------------


def test_mu_param_of_first_slot_is_identity_on_sizes():
    expr = MuParam(Projection(0))
    for n in range(4):
        assert eval_functor(expr, (FiniteSet(n),)).size == n
    f = FiniteFn(FiniteSet(3), FiniteSet(2), (0, 1, 1))
    mor = eval_functor_mor(expr, (f,))
    assert mor.dom.size == 3 and mor.cod.size == 2


def test_mu_param_functor_laws_where_finite():
    expr = MuParam(Projection(0))
    for a, b, c in itertools.product(range(3), repeat=3):
        for f in all_functions(a, b):
            for g in all_functions(b, c):
                lhs = eval_functor_mor(expr, (f.then(g),))
                rhs = eval_functor_mor(expr, (f,)).then(eval_functor_mor(expr, (g,)))
                assert lhs == rhs


def test_mu_param_lists_over_empty_is_nil_only():
    lists = MuParam(Sum((Constant(FiniteSet(1)), Product((Projection(0), Projection(1))))))
    assert eval_functor(lists, (FiniteSet(0),)).size == 1


def test_mu_param_infinite_fixpoint_exceeds_budget():
    lists = MuParam(Sum((Constant(FiniteSet(1)), Product((Projection(0), Projection(1))))))
    with pytest.raises(BudgetExceeded, match=f"^stage budget {NESTED_BUDGET} exhausted$"):
        eval_functor(lists, (FiniteSet(1),))


def test_compose_normalizes_inner():
    single = Compose(POLY, Identity())
    assert single.inner == (Identity(),)
    listed = Compose(POLY, [Identity(), Identity()])
    assert listed.inner == (Identity(), Identity())


def test_law_checks_compare_range_and_tuple_tables_by_value(monkeypatch):
    # F(id) on 1 + X and on a constant is a range; F(f).then(F(g)) slices a
    # bytes table where F(f . g) from the empty set is the range (0,)
    succ = Sum((Constant(FiniteSet(1)), Identity()))
    assert type(eval_functor_mor(succ, (FiniteFn.identity(FiniteSet(2)),)).table) is range
    empty = FiniteFn(FiniteSet(0), FiniteSet(2), ())
    g = FiniteFn(FiniteSet(2), FiniteSet(2), (1, 0))
    lhs = eval_functor_mor(succ, (empty.then(g),))
    rhs = eval_functor_mor(succ, (empty,)).then(eval_functor_mor(succ, (g,)))
    assert (type(lhs.table), type(rhs.table)) == (range, bytes) and lhs == rhs
    for expr in (succ, Constant(FiniteSet(3)), Product((Identity(), Identity()))):
        report = check_functor_laws("f", expr, random.Random(0), 40, 3)
        assert report["ok"], report

    def ranged_legs(d):
        # the same cocone with each run of consecutive classes kept as a range
        cocone = subdiagram_colimit(d)
        legs = {}
        for i, leg in cocone.legs.items():
            run = range(leg.table[0], leg.table[0] + leg.dom.size) if leg.table else ()
            if tuple(leg.table) == tuple(run):
                leg = FiniteFn(leg.dom, leg.cod, run)
            legs[i] = leg
        cocone.legs = legs
        return cocone

    monkeypatch.setattr("muiter.checks.subdiagram_colimit", ranged_legs)
    assert check_cocone_laws(random.Random(0), 60, 3)["ok"]
