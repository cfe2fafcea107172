import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muiter.errors import ShapeMismatch
from muiter.finset import FiniteFn, FiniteSet
from muiter.signature import (
    Signature,
    WTree,
    container_layout,
    container_map,
    empty_signature,
    signature_sum,
)
from reference import wtype_enumerate

BIN = Signature.of(0, 2, labels=["leaf", "node"])


def test_signature_of():
    assert BIN.ops.size == 2
    assert BIN.arities[0].size == 0
    assert BIN.arities[1].size == 2
    assert BIN.op_label(1) == "node"
    assert empty_signature().ops.size == 0
    with pytest.raises(ShapeMismatch):
        Signature(FiniteSet(2), [FiniteSet(0)])


def test_signature_equality_is_structural():
    assert BIN == Signature.of(0, 2)
    assert BIN != Signature.of(0, 1)
    assert hash(BIN) == hash(Signature.of(0, 2))


def test_signature_sum_concatenates():
    s = signature_sum([BIN, Signature.of(1, labels=["wrap"])])
    assert s.ops.size == 3
    assert [a.size for a in s.arities] == [0, 2, 1]
    # labels carry the originating part to keep same-named ops apart
    assert s.op_label(2) == "1.wrap"
    assert s.op_label(0) == "0.leaf"


def test_wtree_basics():
    leaf = WTree(0)
    t = WTree(1, (leaf, WTree(1, (leaf, leaf))))
    assert leaf.height() == 0
    assert t.height() == 2
    assert t.render(BIN) == "node(leaf, node(leaf, leaf))"
    assert leaf.render() == "0"
    assert t == WTree(1, (leaf, WTree(1, (leaf, leaf))))
    assert hash(t) == hash(WTree(1, (leaf, WTree(1, (leaf, leaf)))))
    assert t != leaf


def test_container_layout_round_trip():
    base = FiniteSet(3)
    layout = container_layout(BIN, base)
    # 1 leaf shape + 9 node fillings
    assert layout.set.size == 10
    seen = set()
    for idx in range(layout.set.size):
        op, args = layout.decode(idx)
        assert layout.encode(op, args) == idx
        seen.add((op, tuple(args)))
    assert (0, ()) in seen
    assert len(seen) == 10


def brute_container_size(sig: Signature, n: int) -> int:
    total = 0
    for op in range(sig.ops.size):
        total += n ** sig.arities[op].size
    return total


def test_container_apply_sizes_match_enumeration():
    for sig in (BIN, Signature.of(0, 1, 3), empty_signature(), Signature.of(2,)):
        for n in range(5):
            assert container_layout(sig, FiniteSet(n)).set.size == brute_container_size(sig, n)


def test_container_map_relabels_positions():
    f = FiniteFn(FiniteSet(2), FiniteSet(3), (2, 0))
    mapped = container_map(BIN, f)
    dom_layout = container_layout(BIN, f.dom)
    cod_layout = container_layout(BIN, f.cod)
    assert mapped.dom == dom_layout.set
    assert mapped.cod == cod_layout.set
    for idx in range(dom_layout.set.size):
        op, args = dom_layout.decode(idx)
        expected = cod_layout.encode(op, tuple(f(a) for a in args))
        assert mapped.table[idx] == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_container_map_functorial(data):
    n = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    f = FiniteFn(
        FiniteSet(n), FiniteSet(m), tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    )
    g = FiniteFn(
        FiniteSet(m), FiniteSet(k), tuple(data.draw(st.integers(0, k - 1)) for _ in range(m))
    )
    assert container_map(BIN, f.then(g)) == container_map(BIN, f).then(container_map(BIN, g))
    assert container_map(BIN, FiniteFn.identity(FiniteSet(n))) == FiniteFn.identity(
        container_layout(BIN, FiniteSet(n)).set
    )


# -- tree enumeration --------------------------------------------------------


def tree_key(tree: WTree) -> tuple:
    """Orders trees by op, then by their children in turn."""
    return (tree.op, tuple(tree_key(c) for c in tree.children))


def brute_trees(sig: Signature, depth: int) -> set:
    """All well-formed trees of height < depth, grown level by level."""
    levels = set()
    for _ in range(depth):
        grown = set()
        for op in range(sig.ops.size):
            k = sig.arities[op].size
            for kids in itertools.product(levels, repeat=k):
                grown.add(WTree(op, kids))
        levels |= grown
    return levels


def test_wtype_enumerate_matches_brute_force():
    for sig in (BIN, Signature.of(0, 1), Signature.of(0, 0, 2)):
        for depth in range(4):
            got = wtype_enumerate(sig, depth)
            expected = brute_trees(sig, depth)
            assert set(got) == expected
            # canonical order: sorted by key, no duplicates
            keys = [tree_key(t) for t in got]
            assert keys == sorted(keys)
            assert len(set(got)) == len(got)


def test_wtype_enumerate_counts_iterated_application():
    # the number of trees of height < d equals d-fold application to nothing
    sizes = []
    current = FiniteSet(0)
    for depth in range(5):
        sizes.append(current.size)
        current = container_layout(BIN, current).set
    for depth in range(5):
        assert len(wtype_enumerate(BIN, depth)) == sizes[depth]
    assert sizes == [0, 1, 2, 5, 26]


def test_wtype_enumerate_empty_signature():
    assert wtype_enumerate(empty_signature(), 3) == []
