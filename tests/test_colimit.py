import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muiter.checks import preserves_chain_colimit
from muiter.colimit import Cocone, Diagram, subdiagram_colimit
from muiter.errors import (
    IllTypedArrow,
    NonFunctorialDiagram,
    NoSuchIndex,
    ShapeMismatch,
)
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import Identity, Product
from reference import Relation, finite_cat_colimit, quotient, sum_encode


def fn(a: int, b: int, table) -> FiniteFn:
    return FiniteFn(FiniteSet(a), FiniteSet(b), table)


def all_tables(a: int, b: int):
    return itertools.product(range(b), repeat=a)


# -- reference construction ---------------------------------------------------


def reference_colimit(sizes, tables):
    """Independent quotient of the disjoint sum by generated equivalence.

    sizes: list of object sizes in index order; tables: dict (j, i) ->
    tuple, one per arrow.  Returns (class_count, legs) with legs a
    list of tuples, classes numbered by least member of the block layout.
    """
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (j, i), table in tables.items():
        for x in range(sizes[j]):
            union(offsets[j] + x, offsets[i] + table[x])
    roots = sorted({find(x) for x in range(total)})
    number = {r: c for c, r in enumerate(roots)}
    legs = [
        tuple(number[find(offsets[j] + x)] for x in range(sizes[j]))
        for j in range(len(sizes))
    ]
    return len(roots), legs


def partitions(items):
    """Every partition of a list, as a list of tuples of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + (first,)] + part[k + 1 :]
        yield [(first,)] + part


def is_smallest_compatible_partition(sizes, tables, class_count, legs):
    """The computed quotient must be the finest partition gluing the arrows.

    Enumerates every partition of the disjoint sum, keeps those where each
    x and arrow(x) share a block, and demands (a) the computed one is among
    them and (b) it refines all of them.
    """
    offsets = []
    total = 0
    for n in sizes:
        offsets.append(total)
        total += n
    wanted = [
        (offsets[j] + x, offsets[i] + table[x])
        for (j, i), table in tables.items()
        for x in range(sizes[j])
    ]
    computed_block = {}
    for j, leg in enumerate(legs):
        for x, cls in enumerate(leg):
            computed_block[offsets[j] + x] = cls
    if class_count != len(set(computed_block.values())) and total:
        return False
    found_self = False
    for part in partitions(list(range(total))):
        block_of = {}
        for b, block in enumerate(part):
            for x in block:
                block_of[x] = b
        if any(block_of[a] != block_of[b] for a, b in wanted):
            continue
        same_as_computed = all(
            (block_of[a] == block_of[b]) == (computed_block[a] == computed_block[b])
            for a, b in itertools.combinations(range(total), 2)
        )
        if same_as_computed or total <= 1:
            found_self = True
        # finest: whatever the computed partition identifies, all do
        for a, b in itertools.combinations(range(total), 2):
            if computed_block[a] == computed_block[b] and block_of[a] != block_of[b]:
                return False
    return found_self


def run_engine(sizes, tables):
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {
        (j, i): FiniteFn(objects[j], objects[i], t) for (j, i), t in tables.items()
    }
    diagram = Diagram(objects, arrows)
    cocone = subdiagram_colimit(diagram)
    legs = [tuple(cocone.legs[k].table) for k in range(len(sizes))]
    return diagram, cocone, legs


def relation_colimit(objects, arrows):
    """Apex size and legs through sum_encode and a Relation quotient."""
    sizes = [o.size for o in objects]
    total = FiniteSet(sum(sizes))
    pairs = [
        (sum_encode(sizes, src, x), sum_encode(sizes, dst, h(x)))
        for src, dst, h in arrows
        for x in range(h.dom.size)
    ]
    classes, proj = quotient(total, Relation(total, pairs))
    legs = [
        tuple(proj(sum_encode(sizes, k, x)) for x in range(n))
        for k, n in enumerate(sizes)
    ]
    return classes.size, legs


def random_fn(rng, a: int, b: int) -> FiniteFn:
    return fn(a, b, [rng.randrange(b) for _ in range(a)])


def assert_cocone_laws(diagram, cocone):
    for (j, i), f in diagram.arrows.items():
        assert f.then(cocone.legs[i]) == cocone.legs[j]
    covered = set()
    for leg in cocone.legs.values():
        covered.update(leg.table)
    assert covered == set(range(cocone.apex.size))


# -- exhaustive sweeps over small shapes ---------------------------------------


def test_single_object_diagrams():
    for n in range(5):
        diagram, cocone, legs = run_engine([n], {})
        assert cocone.apex.size == n
        assert legs == [tuple(range(n))]
        assert_cocone_laws(diagram, cocone)


def test_finite_cat_colimit_legs_match_the_relation_quotient():
    rng = random.Random(11)
    for _ in range(400):
        objects = [FiniteSet(rng.randrange(5)) for _ in range(rng.randrange(5))]
        arrows = []
        for _ in range(rng.randrange(5) if objects else 0):
            src, dst = rng.randrange(len(objects)), rng.randrange(len(objects))
            a, b = objects[src].size, objects[dst].size
            if b or not a:
                arrows.append((src, dst, random_fn(rng, a, b)))
        cocone = finite_cat_colimit(objects, arrows)
        count, legs = relation_colimit(objects, arrows)
        assert cocone.apex.size == count
        assert [tuple(cocone.legs[k].table) for k in range(len(objects))] == legs


def random_directed_diagram(rng):
    """A chain with all its composites, or a cospan onto one top index."""
    n = rng.randrange(5)
    sizes = [rng.randrange(5)] + [rng.randrange(1, 5) for _ in range(n)]
    objects = {k: FiniteSet(m) for k, m in enumerate(sizes)}
    arrows = {}
    if rng.random() < 0.5:
        for k in range(n):
            arrows[(k, k + 1)] = random_fn(rng, sizes[k], sizes[k + 1])
        for j in range(n + 1):
            for i in range(j + 2, n + 1):
                arrows[(j, i)] = arrows[(j, i - 1)].then(arrows[(i - 1, i)])
    else:
        for k in range(n):
            arrows[(k, n)] = random_fn(rng, sizes[k], sizes[n])
    return Diagram(objects, arrows)


def test_subdiagram_colimit_legs_match_the_relation_quotient():
    rng = random.Random(12)
    for _ in range(400):
        d = random_directed_diagram(rng)
        cocone = subdiagram_colimit(d)
        objects = [d.objects[i] for i in d.indices]
        arrows = [(j, i, f) for (j, i), f in d.arrows.items()]
        count, legs = relation_colimit(objects, arrows)
        assert cocone.apex.size == count
        assert [tuple(cocone.legs[i].table) for i in d.indices] == legs


# -- maps induced out of a colimit ---------------------------------------------


class Induced(Exception):
    """Raised by the test's ill_defined and unreached hooks, naming the class."""

    def __init__(self, kind: str, cls: int):
        super().__init__(kind, cls)
        self.outcome = (kind, cls)


def engine_induce(cocone, values):
    try:
        table = cocone.induce(
            values,
            lambda cls: Induced("ill defined", cls),
            lambda cls: Induced("unreached", cls),
        )
    except Induced as e:
        return e.outcome
    return "ok", list(table)


def reference_induce(apex_size, legs, values):
    """The induced table element by element, first value and first fault kept.

    legs holds one table per index, in index order; values(k) is the wanted
    composite with leg k.
    """
    table = [None] * apex_size
    for k, leg in enumerate(legs):
        vals = values(k)
        for x in range(len(leg)):
            cls = leg[x]
            if table[cls] is None:
                table[cls] = vals[x]
            elif table[cls] != vals[x]:
                return "ill defined", cls
    for cls, v in enumerate(table):
        if v is None:
            return "unreached", cls
    return "ok", table


def random_colimit(rng):
    """A colimit by either constructor, indexed 0..n-1, and its Relation legs.

    Arrow-free diagrams and one-object diagrams each make up a good share.
    """
    if rng.random() < 0.4:
        d = random_directed_diagram(rng)
        objects = [d.objects[i] for i in d.indices]
        arrows = [(j, i, f) for (j, i), f in d.arrows.items()]
        cocone = subdiagram_colimit(d)
    else:
        n = rng.choice([1, 2, 3, 4])
        objects = [FiniteSet(rng.randrange(5)) for _ in range(n)]
        arrows = []
        for _ in range(rng.choice([0, rng.randrange(1, 5)])):
            src, dst = rng.randrange(n), rng.randrange(n)
            a, b = objects[src].size, objects[dst].size
            if b or not a:
                arrows.append((src, dst, random_fn(rng, a, b)))
        cocone = finite_cat_colimit(objects, arrows)
    count, legs = relation_colimit(objects, arrows)
    assert cocone.apex.size == count
    return cocone, legs


def random_values(rng, cocone, legs):
    """Per-index values: composites of one map out of the apex, or noise."""
    cod = rng.randrange(1, 4)
    if rng.random() < 0.5:
        h = [rng.randrange(cod) for _ in range(cocone.apex.size)]
        tables = [[h[c] for c in leg] for leg in legs]
    else:
        tables = [[rng.randrange(cod) for _ in leg] for leg in legs]
    return tables


def test_induce_matches_the_per_element_reference():
    rng = random.Random(13)
    seen = collections.Counter()
    for _ in range(400):
        cocone, legs = random_colimit(rng)
        tables = random_values(rng, cocone, legs)
        want = reference_induce(cocone.apex.size, legs, tables.__getitem__)
        assert engine_induce(cocone, tables.__getitem__) == want
        seen[want[0], len(legs) == 1, isinstance(cocone._quotient, range)] += 1
    # one and several objects, with and without arrows; only arrows clash
    assert set(seen) == {
        ("ok", True, True), ("ok", True, False),
        ("ok", False, True), ("ok", False, False),
        ("ill defined", True, False), ("ill defined", False, False),
    }


def test_induce_reads_values_once_per_index_in_order():
    rng = random.Random(14)
    for _ in range(100):
        cocone, legs = random_colimit(rng)
        tables = random_values(rng, cocone, legs)
        calls = []

        def values(k):
            calls.append(k)
            return tables[k]

        kind, _ = engine_induce(cocone, values)
        assert calls == list(range(len(legs) if kind == "ok" else len(calls)))


def test_induce_names_the_first_unreached_class_of_a_widened_apex():
    rng = random.Random(15)
    for _ in range(200):
        cocone, legs = random_colimit(rng)
        tables = random_values(rng, cocone, legs)
        if rng.random() < 0.5:
            cocone.legs[0]  # one leg built before the apex changes
        cocone.apex = FiniteSet(cocone.apex.size + rng.randrange(1, 3))
        want = reference_induce(cocone.apex.size, legs, tables.__getitem__)
        assert want[0] != "ok"
        assert engine_induce(cocone, tables.__getitem__) == want


def with_replaced_leg(cocone, k, leg):
    """The cocone rebuilt on its quotient map with the block of index k set to leg."""
    quotient = list(cocone._quotient)
    d = cocone.diagram
    off = sum_encode([d.objects[i].size for i in d.indices], d.indices.index(k), 0)
    quotient[off : off + len(leg)] = leg
    return Cocone(d, cocone.apex, quotient)


def test_induce_honours_a_replaced_leg():
    rng = random.Random(16)
    outcomes = set()
    for _ in range(200):
        cocone, legs = random_colimit(rng)
        k = rng.randrange(len(legs))
        part, apex = FiniteSet(len(legs[k])), cocone.apex
        if not apex.size:
            continue
        new_leg = random_fn(rng, part.size, apex.size)
        cocone = with_replaced_leg(cocone, k, new_leg.table)
        assert cocone.legs[k] == new_leg
        legs[k] = new_leg.table
        tables = random_values(rng, cocone, legs)
        want = reference_induce(apex.size, legs, tables.__getitem__)
        assert engine_induce(cocone, tables.__getitem__) == want
        outcomes.add(want[0])
    assert outcomes == {"ok", "ill defined", "unreached"}


def test_replaced_leg_in_an_arrow_free_sum_is_not_taken_as_a_block():
    cocone = finite_cat_colimit([FiniteSet(2), FiniteSet(2)], [])
    tables = [[0, 1], [2, 3]]
    assert engine_induce(cocone, tables.__getitem__) == ("ok", [0, 1, 2, 3])
    swapped = with_replaced_leg(cocone, 1, [3, 2])
    assert engine_induce(swapped, tables.__getitem__) == ("ok", [0, 1, 3, 2])
    merged = with_replaced_leg(cocone, 1, [1, 2])
    assert engine_induce(merged, tables.__getitem__) == ("ill defined", 1)


def test_induce_returns_a_single_arrow_free_table_as_it_is():
    cocone = finite_cat_colimit([FiniteSet(3)], [])
    table = [2, 0, 1]
    assert cocone.induce(lambda k: table, None) is table
    with pytest.raises(ShapeMismatch):
        cocone.induce(lambda k: [0, 1], None)


def test_legs_built_on_first_read_equal_the_eager_slices():
    rng = random.Random(17)
    for _ in range(400):
        cocone, legs = random_colimit(rng)
        indices = cocone.diagram.indices
        assert list(cocone.legs) == list(indices)
        assert len(cocone.legs) == len(indices)
        assert cocone.legs.get(len(indices)) is None
        for k in rng.sample(indices, len(indices)):
            leg = cocone.legs[k]
            assert leg == FiniteFn(cocone.diagram.objects[k], cocone.apex, legs[k])
            assert cocone.legs[k] is leg
        assert cocone.apex.size == len(set().union(*legs))
        assert [tuple(cocone.legs[k].table) for k in indices] == legs


def test_two_index_chains_exhaustive():
    checked = 0
    for a, b in itertools.product(range(5), repeat=2):
        for table in all_tables(a, b):
            tables = {(0, 1): table}
            diagram, cocone, legs = run_engine([a, b], tables)
            count, ref_legs = reference_colimit([a, b], tables)
            assert cocone.apex.size == count
            assert legs == ref_legs
            assert_cocone_laws(diagram, cocone)
            if a + b <= 6:
                assert is_smallest_compatible_partition(
                    [a, b], tables, count, legs
                )
            checked += 1
    assert checked == 499


def test_vee_diagrams_exhaustive():
    checked = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for t0 in all_tables(a, c):
            for t1 in all_tables(b, c):
                tables = {(0, 2): t0, (1, 2): t1}
                diagram, cocone, legs = run_engine([a, b, c], tables)
                count, ref_legs = reference_colimit([a, b, c], tables)
                assert cocone.apex.size == count
                assert legs == ref_legs
                assert_cocone_laws(diagram, cocone)
                if a + b + c <= 6:
                    assert is_smallest_compatible_partition(
                        [a, b, c], tables, count, legs
                    )
                checked += 1
    assert checked == 59


def test_three_index_chains_exhaustive():
    checked = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for t01 in all_tables(a, b):
            for t12 in all_tables(b, c):
                t02 = tuple(t12[v] for v in t01)
                tables = {(0, 1): t01, (1, 2): t12, (0, 2): t02}
                diagram, cocone, legs = run_engine([a, b, c], tables)
                count, ref_legs = reference_colimit([a, b, c], tables)
                assert cocone.apex.size == count
                assert legs == ref_legs
                assert_cocone_laws(diagram, cocone)
                if a + b + c <= 6:
                    assert is_smallest_compatible_partition(
                        [a, b, c], tables, count, legs
                    )
                checked += 1
    assert checked == 47


def test_three_index_diagrams_sampled_at_size_four():
    rng = random.Random(23)
    for shape in ("vee", "chain"):
        for _ in range(150):
            a, b, c = (rng.randrange(0, 5) for _ in range(3))
            if shape == "vee":
                tables = {
                    (0, 2): tuple(rng.randrange(c) for _ in range(a)) if c else (),
                    (1, 2): tuple(rng.randrange(c) for _ in range(b)) if c else (),
                }
                if (a and not c) or (b and not c):
                    continue
            else:
                if (a and not b) or (b and not c) or (a and not c):
                    continue
                t01 = tuple(rng.randrange(b) for _ in range(a)) if b else ()
                t12 = tuple(rng.randrange(c) for _ in range(b)) if c else ()
                tables = {
                    (0, 1): t01,
                    (1, 2): t12,
                    (0, 2): tuple(t12[v] for v in t01),
                }
            diagram, cocone, legs = run_engine([a, b, c], tables)
            count, ref_legs = reference_colimit([a, b, c], tables)
            assert cocone.apex.size == count
            assert legs == ref_legs
            assert_cocone_laws(diagram, cocone)


# -- specific behaviours --------------------------------------------------------


def test_inclusion_chain_collapses_to_top():
    # 2 included into 3: nothing is glued, the apex is the top object
    diagram, cocone, legs = run_engine([2, 3], {(0, 1): (0, 1)})
    assert cocone.apex.size == 3
    assert legs[1] == (0, 1, 2)
    assert legs[0] == (0, 1)


def test_two_cycle_quotients_to_orbits():
    # lax comparisons can point both ways; the swap two-cycle glues orbits
    objects = {0: FiniteSet(2), 1: FiniteSet(2)}
    swap = fn(2, 2, (1, 0))
    diagram = Diagram(objects, {(0, 1): swap, (1, 0): swap})
    cocone = subdiagram_colimit(diagram)
    assert cocone.apex.size == 2
    assert tuple(cocone.legs[0].table) == (0, 1)
    assert tuple(cocone.legs[1].table) == (1, 0)


def test_empty_diagram_has_empty_colimit():
    diagram = Diagram({}, {})
    cocone = subdiagram_colimit(diagram)
    assert cocone.apex.size == 0


def test_collapsing_chain():
    # both points map to one, then onwards: everything in one class
    diagram, cocone, legs = run_engine(
        [2, 1, 1], {(0, 1): (0, 0), (1, 2): (0,), (0, 2): (0, 0)}
    )
    assert cocone.apex.size == 1


def test_class_of_matches_legs():
    diagram, cocone, legs = run_engine([3, 2], {(0, 1): (0, 0, 1)})
    assert legs == [(0, 0, 1), (0, 1)]
    assert cocone.apex.size == 2
    assert tuple(cocone.legs[0].table) == (0, 0, 1)
    assert tuple(cocone.legs[1].table) == (0, 1)


# -- the index order is the order the objects are given in --------------------


def test_objects_out_of_key_order_lay_out_the_colimit_in_their_order():
    # blocks 2, 0, 1 sit at 0..1, 2 and 3..4 of the sum: {0, 4} and {1, 2, 3}
    objects = {2: FiniteSet(2), 0: FiniteSet(1), 1: FiniteSet(2)}
    diagram = Diagram(objects, {(0, 2): fn(1, 2, (1,)), (1, 2): fn(2, 2, (1, 0))})
    assert diagram.indices == (2, 0, 1)
    cocone = subdiagram_colimit(diagram)
    assert cocone.apex.size == 2
    assert list(cocone.legs) == [2, 0, 1]
    assert [tuple(leg.table) for leg in cocone.legs.values()] == [(0, 1), (1,), (1, 0)]
    calls = []

    def values(k):
        calls.append(k)
        return {2: (5, 6), 0: (6,), 1: (6, 5)}[k]

    table = cocone.induce(values, None)
    assert calls == [2, 0, 1]
    assert list(table) == [5, 6]


def test_relabelled_diagrams_match_the_union_find_reference_in_object_order():
    # a directed diagram on 0..n, its index k relabelled label[k] and its
    # objects given in that order, against the reference over positions
    rng = random.Random(18)
    for _ in range(300):
        d = random_directed_diagram(rng)
        label = rng.sample(range(len(d.indices)), len(d.indices))
        relabelled = Diagram(
            {label[k]: d.objects[k] for k in d.indices},
            {(label[j], label[i]): f for (j, i), f in d.arrows.items()},
        )
        assert relabelled.indices == tuple(label)
        sizes = [d.objects[k].size for k in d.indices]
        tables = {e: f.table for e, f in d.arrows.items()}
        count, ref_legs = reference_colimit(sizes, tables)
        cocone = subdiagram_colimit(relabelled)
        assert cocone.apex.size == count
        assert list(cocone.legs) == label
        assert [tuple(cocone.legs[label[k]].table) for k in d.indices] == ref_legs
        assert_cocone_laws(relabelled, cocone)
        values = random_values(rng, cocone, ref_legs)
        position = {name: k for k, name in enumerate(label)}
        want = reference_induce(count, ref_legs, values.__getitem__)
        got = engine_induce(cocone, lambda name: values[position[name]])
        assert got == want


# -- validation ------------------------------------------------------------------


def test_diagram_validation():
    a, b = FiniteSet(2), FiniteSet(2)
    with pytest.raises(NoSuchIndex):
        Diagram({0: a}, {(0, 1): fn(2, 2, (0, 1))})
    with pytest.raises(NoSuchIndex):
        Diagram({1: b}, {(0, 1): fn(2, 2, (0, 1))})
    with pytest.raises(NonFunctorialDiagram):
        Diagram({0: a}, {(0, 0): FiniteFn.identity(a)})
    with pytest.raises(IllTypedArrow):
        Diagram({0: a, 1: FiniteSet(3)}, {(0, 1): fn(2, 2, (0, 1))})
    with pytest.raises(NonFunctorialDiagram):
        # non-commuting triangle
        run_engine(
            [1, 1, 2], {(0, 1): (0,), (1, 2): (0,), (0, 2): (1,)}
        )


def test_triangles_commute_whether_tables_are_ranges_or_tuples():
    # (0,1) then (1,2) composes to the range (1, 2); (0,2) lists it as a tuple
    sizes = {0: FiniteSet(2), 1: FiniteSet(3), 2: FiniteSet(4)}
    arrows = {
        (0, 1): FiniteFn(sizes[0], sizes[1], range(2)),
        (1, 2): FiniteFn(sizes[1], sizes[2], range(1, 4)),
        (0, 2): FiniteFn(sizes[0], sizes[2], (1, 2)),
    }
    assert type(arrows[(0, 1)].then(arrows[(1, 2)]).table) is range
    Diagram(sizes, arrows)
    arrows[(0, 2)] = FiniteFn(sizes[0], sizes[2], (1, 3))
    with pytest.raises(NonFunctorialDiagram):
        Diagram(sizes, arrows)


def brute_force_directed(indices, edges) -> bool:
    """Every pair of indices has a common index each reaches by one arrow or none."""
    reach = set(edges) | {(i, i) for i in indices}
    return all(
        any((a, m) in reach and (b, m) in reach for m in indices)
        for a in indices
        for b in indices
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_directed_agrees_with_its_definition_on_random_arrow_sets(data):
    # one-point objects, so every arrow is the one map and every triangle
    # commutes; cutting the last index off its arrows leaves it reaching no
    # other index, which makes a diagram of two or more indices undirected
    n = data.draw(st.integers(0, 7))
    pairs = [(j, i) for j in range(n) for i in range(n) if j != i]
    edges = data.draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    cut = [(j, i) for j, i in edges if n - 1 not in (j, i)]
    objects = {k: FiniteSet(1) for k in range(n)}
    verdicts = []
    for arrows in (edges, cut):
        diagram = Diagram(objects, {edge: fn(1, 1, (0,)) for edge in arrows})
        verdicts.append(diagram.is_directed())
        assert verdicts[-1] == brute_force_directed(range(n), arrows)
    assert verdicts[1] == (n < 2)


def test_not_directed_is_rejected():
    objects = {0: FiniteSet(1), 1: FiniteSet(1)}
    diagram = Diagram(objects, {})
    assert not diagram.is_directed()
    with pytest.raises(NonFunctorialDiagram):
        subdiagram_colimit(diagram)


# -- products against colimits ---------------------------------------------------


def chain_diagram(sizes, tables):
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {(0, 1): FiniteFn(objects[0], objects[1], tables[(0, 1)])}
    return Diagram(objects, arrows)


def test_finite_powers_commute_with_directed_colimits():
    # colim(D^k) -> (colim D)^k is the comparison map of the functor X^k
    rng = random.Random(31)
    for _ in range(25):
        a = rng.randrange(0, 4)
        b = rng.randrange(1, 4)
        d = chain_diagram([a, b], {(0, 1): tuple(rng.randrange(b) for _ in range(a))})
        for k in range(4):
            assert preserves_chain_colimit(Product((Identity(),) * k), d)


# -- colimits over arbitrary finite shapes ---------------------------------------


def test_finite_cat_colimit_orbit_quotient():
    two = FiniteSet(2)
    swap = fn(2, 2, (1, 0))
    cocone = finite_cat_colimit([two], [(0, 0, swap)])
    assert cocone.apex.size == 1
    assert tuple(cocone.legs[0].table) == (0, 0)


def test_finite_cat_colimit_coproduct_when_no_arrows():
    cocone = finite_cat_colimit([FiniteSet(2), FiniteSet(3)], [])
    assert cocone.apex.size == 5


def test_finite_cat_colimit_coequalizer():
    # two parallel arrows out of a point pick two elements to glue
    one, three = FiniteSet(1), FiniteSet(3)
    f = fn(1, 3, (0,))
    g = fn(1, 3, (2,))
    cocone = finite_cat_colimit([one, three], [(0, 1, f), (0, 1, g)])
    assert cocone.apex.size == 2
    leg = cocone.legs[1].table
    assert leg[0] == leg[2] != leg[1]


def test_finite_cat_colimit_validation():
    with pytest.raises(NoSuchIndex):
        finite_cat_colimit([FiniteSet(1)], [(0, 2, fn(1, 1, (0,)))])
    with pytest.raises(IllTypedArrow):
        finite_cat_colimit([FiniteSet(1), FiniteSet(2)], [(0, 1, fn(1, 1, (0,)))])
