import itertools
import random

import pytest

from muiter.colimit import (
    Diagram,
    canonical_product_map,
    colimit_commutes_with_finite_limits_check,
    connecting_map,
    finite_cat_colimit,
    subdiagram_colimit,
)
from muiter.errors import (
    IllTypedArrow,
    IndexMismatch,
    NonFunctorialDiagram,
    NoSuchIndex,
    ShapeMismatch,
)
from muiter.finset import FiniteFn, FiniteSet, Relation, TaggedSum, quotient


def fn(a: int, b: int, table) -> FiniteFn:
    return FiniteFn(FiniteSet(a), FiniteSet(b), table)


def all_tables(a: int, b: int):
    return itertools.product(range(b), repeat=a)


# -- reference construction ---------------------------------------------------


def reference_colimit(sizes, edges, tables):
    """Independent quotient of the disjoint sum by generated equivalence.

    sizes: list of object sizes in index order; edges: list of (j, i);
    tables: dict edge -> tuple.  Returns (class_count, legs) with legs a
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

    for (j, i) in edges:
        for x in range(sizes[j]):
            union(offsets[j] + x, offsets[i] + tables[(j, i)][x])
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


def is_smallest_compatible_partition(sizes, edges, tables, class_count, legs):
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
        (offsets[j] + x, offsets[i] + tables[(j, i)][x])
        for (j, i) in edges
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


def run_engine(sizes, edges, tables):
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {
        e: FiniteFn(objects[e[0]], objects[e[1]], tables[e]) for e in edges
    }
    diagram = Diagram(tuple(range(len(sizes))), edges, objects, arrows)
    cocone = subdiagram_colimit(diagram)
    legs = [tuple(cocone.legs[k].table) for k in range(len(sizes))]
    return diagram, cocone, legs


def relation_colimit(objects, arrows):
    """Apex size and legs through TaggedSum.encode and a Relation quotient."""
    layout = TaggedSum(objects)
    pairs = [
        (layout.encode(src, x), layout.encode(dst, h(x)))
        for src, dst, h in arrows
        for x in range(h.dom.size)
    ]
    classes, proj = quotient(layout.set, Relation(layout.set, pairs))
    legs = [
        tuple(proj(layout.encode(k, x)) for x in range(o.size))
        for k, o in enumerate(objects)
    ]
    return classes.size, legs


def random_fn(rng, a: int, b: int) -> FiniteFn:
    return fn(a, b, [rng.randrange(b) for _ in range(a)])


def assert_cocone_laws(diagram, cocone):
    for (j, i) in diagram.edges:
        assert diagram.arrows[(j, i)].then(cocone.legs[i]) == cocone.legs[j]
    covered = set()
    for leg in cocone.legs.values():
        covered.update(leg.table)
    assert covered == set(range(cocone.apex.size))


# -- exhaustive sweeps over small shapes ---------------------------------------


def test_single_object_diagrams():
    for n in range(5):
        diagram, cocone, legs = run_engine([n], [], {})
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
        assert [cocone.legs[k].table for k in range(len(objects))] == legs


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
    return Diagram(tuple(range(n + 1)), list(arrows), objects, arrows)


def test_subdiagram_colimit_legs_match_the_relation_quotient():
    rng = random.Random(12)
    for _ in range(400):
        d = random_directed_diagram(rng)
        cocone = subdiagram_colimit(d)
        objects = [d.objects[i] for i in d.indices]
        arrows = [(j, i, f) for (j, i), f in d.arrows.items()]
        count, legs = relation_colimit(objects, arrows)
        assert cocone.apex.size == count
        assert [cocone.legs[i].table for i in d.indices] == legs


def test_two_index_chains_exhaustive():
    checked = 0
    for a, b in itertools.product(range(5), repeat=2):
        for table in all_tables(a, b):
            edges = [(0, 1)]
            tables = {(0, 1): table}
            diagram, cocone, legs = run_engine([a, b], edges, tables)
            count, ref_legs = reference_colimit([a, b], edges, tables)
            assert cocone.apex.size == count
            assert legs == ref_legs
            assert_cocone_laws(diagram, cocone)
            if a + b <= 6:
                assert is_smallest_compatible_partition(
                    [a, b], edges, tables, count, legs
                )
            checked += 1
    assert checked == 499


def test_vee_diagrams_exhaustive():
    checked = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for t0 in all_tables(a, c):
            for t1 in all_tables(b, c):
                edges = [(0, 2), (1, 2)]
                tables = {(0, 2): t0, (1, 2): t1}
                diagram, cocone, legs = run_engine([a, b, c], edges, tables)
                count, ref_legs = reference_colimit([a, b, c], edges, tables)
                assert cocone.apex.size == count
                assert legs == ref_legs
                assert_cocone_laws(diagram, cocone)
                if a + b + c <= 6:
                    assert is_smallest_compatible_partition(
                        [a, b, c], edges, tables, count, legs
                    )
                checked += 1
    assert checked == 59


def test_three_index_chains_exhaustive():
    checked = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for t01 in all_tables(a, b):
            for t12 in all_tables(b, c):
                t02 = tuple(t12[v] for v in t01)
                edges = [(0, 1), (1, 2), (0, 2)]
                tables = {(0, 1): t01, (1, 2): t12, (0, 2): t02}
                diagram, cocone, legs = run_engine([a, b, c], edges, tables)
                count, ref_legs = reference_colimit([a, b, c], edges, tables)
                assert cocone.apex.size == count
                assert legs == ref_legs
                assert_cocone_laws(diagram, cocone)
                if a + b + c <= 6:
                    assert is_smallest_compatible_partition(
                        [a, b, c], edges, tables, count, legs
                    )
                checked += 1
    assert checked == 47


def test_three_index_diagrams_sampled_at_size_four():
    rng = random.Random(23)
    for shape in ("vee", "chain"):
        for _ in range(150):
            a, b, c = (rng.randrange(0, 5) for _ in range(3))
            if shape == "vee":
                edges = [(0, 2), (1, 2)]
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
                edges = [(0, 1), (1, 2), (0, 2)]
            diagram, cocone, legs = run_engine([a, b, c], edges, tables)
            count, ref_legs = reference_colimit([a, b, c], edges, tables)
            assert cocone.apex.size == count
            assert legs == ref_legs
            assert_cocone_laws(diagram, cocone)


# -- specific behaviours --------------------------------------------------------


def test_inclusion_chain_collapses_to_top():
    # 2 included into 3: nothing is glued, the apex is the top object
    diagram, cocone, legs = run_engine([2, 3], [(0, 1)], {(0, 1): (0, 1)})
    assert cocone.apex.size == 3
    assert legs[1] == (0, 1, 2)
    assert legs[0] == (0, 1)


def test_two_cycle_quotients_to_orbits():
    # lax comparisons can point both ways; the swap two-cycle glues orbits
    objects = {0: FiniteSet(2), 1: FiniteSet(2)}
    swap = fn(2, 2, (1, 0))
    diagram = Diagram(
        (0, 1), [(0, 1), (1, 0)], objects, {(0, 1): swap, (1, 0): swap}
    )
    cocone = subdiagram_colimit(diagram)
    assert cocone.apex.size == 2
    assert cocone.legs[0].table == (0, 1)
    assert cocone.legs[1].table == (1, 0)


def test_empty_diagram_has_empty_colimit():
    diagram = Diagram((), [], {}, {})
    cocone = subdiagram_colimit(diagram)
    assert cocone.apex.size == 0


def test_collapsing_chain():
    # both points map to one, then onwards: everything in one class
    diagram, cocone, legs = run_engine(
        [2, 1, 1], [(0, 1), (1, 2), (0, 2)],
        {(0, 1): (0, 0), (1, 2): (0,), (0, 2): (0, 0)},
    )
    assert cocone.apex.size == 1


def test_class_of_matches_legs():
    diagram, cocone, legs = run_engine([3, 2], [(0, 1)], {(0, 1): (0, 0, 1)})
    for x in range(3):
        assert cocone.class_of(0, x) == legs[0][x]
    assert cocone.to_json()["apex"] == {"size": 2}


# -- validation ------------------------------------------------------------------


def test_diagram_validation():
    a, b = FiniteSet(2), FiniteSet(2)
    with pytest.raises(NoSuchIndex):
        Diagram((0,), [(0, 1)], {0: a}, {})
    with pytest.raises(NonFunctorialDiagram):
        Diagram((0, 1), [(0, 1)], {0: a, 1: b}, {})
    with pytest.raises(NonFunctorialDiagram):
        Diagram((0,), [(0, 0)], {0: a}, {(0, 0): FiniteFn.identity(a)})
    with pytest.raises(IllTypedArrow):
        Diagram((0, 1), [(0, 1)], {0: a, 1: FiniteSet(3)}, {(0, 1): fn(2, 2, (0, 1))})
    with pytest.raises(NonFunctorialDiagram):
        # arrow with no matching edge
        Diagram((0, 1), [], {0: a, 1: b}, {(0, 1): fn(2, 2, (0, 1))})
    with pytest.raises(NonFunctorialDiagram):
        # non-commuting triangle
        run_engine(
            [1, 1, 2],
            [(0, 1), (1, 2), (0, 2)],
            {(0, 1): (0,), (1, 2): (0,), (0, 2): (1,)},
        )


def test_not_directed_is_rejected():
    objects = {0: FiniteSet(1), 1: FiniteSet(1)}
    diagram = Diagram((0, 1), [], objects, {})
    assert not diagram.is_directed()
    with pytest.raises(NonFunctorialDiagram):
        subdiagram_colimit(diagram)


def test_restrict_and_down_set():
    diagram, _, _ = run_engine(
        [1, 1, 1], [(0, 1), (1, 2), (0, 2)],
        {(0, 1): (0,), (1, 2): (0,), (0, 2): (0,)},
    )
    assert diagram.down_set(2) == [0, 1]
    sub = diagram.restrict([0, 1])
    assert sub.indices == (0, 1)
    assert sub.edges == frozenset({(0, 1)})


# -- connecting maps ----------------------------------------------------------


def test_connecting_map_on_chain():
    diagram, _, _ = run_engine(
        [2, 3, 3],
        [(0, 1), (1, 2), (0, 2)],
        {(0, 1): (0, 1), (1, 2): (0, 1, 2), (0, 2): (0, 1)},
    )
    conn = connecting_map(diagram, 1, 2)
    # down-set of 1 is {0}, of 2 is {0, 1}
    assert conn.dom.size == 2
    assert conn.cod.size == 3
    assert conn.table == (0, 1)
    with pytest.raises(NoSuchIndex):
        connecting_map(diagram, 2, 1)
    with pytest.raises(NoSuchIndex):
        connecting_map(diagram, 0, 9)


def test_connecting_map_respects_gluing():
    # the first object is glued to one point downstream
    diagram, _, _ = run_engine(
        [2, 1, 1],
        [(0, 1), (1, 2), (0, 2)],
        {(0, 1): (0, 0), (1, 2): (0,), (0, 2): (0, 0)},
    )
    conn = connecting_map(diagram, 1, 2)
    assert conn.dom.size == 2  # colim over {0} is the bare pair
    assert conn.cod.size == 1
    assert conn.table == (0, 0)


# -- products against colimits ---------------------------------------------------


def chain_diagram(sizes, tables):
    edges = [(0, 1)]
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {(0, 1): FiniteFn(objects[0], objects[1], tables[(0, 1)])}
    return Diagram((0, 1), edges, objects, arrows)


def test_canonical_product_map_bijective_on_chains():
    rng = random.Random(9)
    for _ in range(60):
        a = rng.randrange(0, 4)
        b = rng.randrange(1, 4)
        d1 = chain_diagram([a, b], {(0, 1): tuple(rng.randrange(b) for _ in range(a))})
        d2 = chain_diagram([a, b], {(0, 1): tuple(rng.randrange(b) for _ in range(a))})
        cmp_map = canonical_product_map([d1, d2])
        assert cmp_map.is_bijection()


def test_canonical_product_map_empty_family_needs_shape():
    with pytest.raises(IndexMismatch):
        canonical_product_map([])
    d = chain_diagram([1, 1], {(0, 1): (0,)})
    cmp_map = canonical_product_map([], shape=(d.indices, d.edges))
    # empty product is the point; colim of the point diagram is the point
    assert cmp_map.dom.size == 1 and cmp_map.cod.size == 1


def test_canonical_product_map_rejects_mismatched_shapes():
    d1 = chain_diagram([1, 1], {(0, 1): (0,)})
    d2 = Diagram((0,), [], {0: FiniteSet(1)}, {})
    with pytest.raises(IndexMismatch):
        canonical_product_map([d1, d2])


def test_finite_powers_commute_with_directed_colimits():
    rng = random.Random(31)
    for _ in range(25):
        a = rng.randrange(0, 4)
        b = rng.randrange(1, 4)
        d = chain_diagram([a, b], {(0, 1): tuple(rng.randrange(b) for _ in range(a))})
        for k in range(4):
            assert colimit_commutes_with_finite_limits_check(d, k)
    with pytest.raises(ShapeMismatch):
        colimit_commutes_with_finite_limits_check(d, 4)


# -- colimits over arbitrary finite shapes ---------------------------------------


def test_finite_cat_colimit_orbit_quotient():
    two = FiniteSet(2)
    swap = fn(2, 2, (1, 0))
    cocone = finite_cat_colimit([two], [(0, 0, swap)])
    assert cocone.apex.size == 1
    assert cocone.legs[0].table == (0, 0)


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
