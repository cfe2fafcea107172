import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muiter.errors import ShapeMismatch
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import Container, eval_functor, eval_functor_mor
from muiter.signature import Signature, WTree
from muiter.size import kappa_sigma
from launch import child_env
from reference import container_decode, container_encode, tree_key, wtype_enumerate

BIN = Signature.of(0, 2, labels=["leaf", "node"])


def test_signature_of():
    assert BIN.ops.size == 2
    assert BIN.arities[0].size == 0
    assert BIN.arities[1].size == 2
    assert BIN.op_label(1) == "node"
    assert Signature.of().ops.size == 0
    with pytest.raises(ShapeMismatch):
        Signature(FiniteSet(2), [FiniteSet(0)])
    with pytest.raises(ShapeMismatch, match="^1 labels for 2 operations$"):
        Signature.of(0, 2, labels=["leaf"])


def test_signature_equality_is_structural():
    assert BIN == Signature.of(0, 2)
    assert BIN != Signature.of(0, 1)
    assert hash(BIN) == hash(Signature.of(0, 2))


def test_wtree_basics():
    node = kappa_sigma(BIN).node
    leaf = node(0)
    t = node(1, (leaf, node(1, (leaf, leaf))))
    assert leaf.height() == 0
    assert t.height() == 2
    assert t == node(1, (leaf, node(1, (leaf, leaf))))
    assert hash(t) == hash(node(1, (leaf, node(1, (leaf, leaf)))))
    assert t != leaf
    # a tree is built by a backend's node only, and is not changed after
    with pytest.raises(TypeError):
        WTree(0)
    with pytest.raises(AttributeError):
        t.op = 0


def test_the_repr_of_a_deep_shared_tree_costs_nothing_per_level():
    # written out in full, the depth-60 successor tower has 2**61 - 1 nodes;
    # the child is capped in time and address space, so a repr that walks
    # it fails instead of filling memory
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from muiter.signature import Signature\n"
        "from muiter.size import kappa_sigma\n"
        "node = kappa_sigma(Signature.of()).node\n"
        "t = node(0)\n"
        "for _ in range(60):\n"
        "    t = node(1, (t, t))\n"
        "start = time.perf_counter()\n"
        "text = repr(t)\n"
        "print(text, time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr[-500:]
    text, seconds = done.stdout.rsplit(" ", 1)
    assert text == "WTree(op=1, height=60)"
    assert float(seconds) < 0.05


def test_container_layout_round_trip():
    # 1 leaf shape + 9 node fillings
    assert eval_functor(Container(BIN), (FiniteSet(3),)).size == 10
    seen = set()
    for idx in range(10):
        op, args = container_decode(BIN, 3, idx)
        assert container_encode(BIN, 3, op, args) == idx
        seen.add((op, tuple(args)))
    assert (0, ()) in seen
    assert len(seen) == 10


def enumerated_container_size(sig: Signature, n: int) -> int:
    """The shapes one by one: every op with every filling of its positions."""
    return sum(
        1
        for a in sig.arities
        for _ in itertools.product(range(n), repeat=a.size)
    )


def test_container_apply_sizes_match_enumeration():
    sigs = (
        BIN,
        Signature.of(0, 1, 3),
        Signature.of(0, 0),
        Signature.of(),
        Signature.of(2,),
    )
    for sig in sigs:
        for n in range(5):
            count = enumerated_container_size(sig, n)
            assert eval_functor(Container(sig), (FiniteSet(n),)).size == count
            inclusion = FiniteFn(FiniteSet(n), FiniteSet(n + 1), range(n))
            mapped = eval_functor_mor(Container(sig), (inclusion,))
            assert mapped.dom.size == count
            assert mapped.cod.size == enumerated_container_size(sig, n + 1)
    # 0 ** 0 = 1 and 0 ** k = 0: over no elements only the nullary op has a shape
    assert eval_functor(Container(Signature.of(0, 2)), (FiniteSet(0),)).size == 1


def test_container_map_relabels_positions():
    f = FiniteFn(FiniteSet(2), FiniteSet(3), (2, 0))
    plain = eval_functor_mor(Container(BIN), (f,))
    fused = eval_functor_mor(Container(BIN), (f,), then=FiniteFn.identity(FiniteSet(10)))
    for mapped in (plain, fused):
        assert mapped.dom.size == 5
        assert mapped.cod.size == 10
        for idx in range(5):
            op, args = container_decode(BIN, 2, idx)
            expected = container_encode(BIN, 3, op, tuple(f(a) for a in args))
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
    tree = Container(BIN)
    composite = eval_functor_mor(tree, (f.then(g),))
    assert composite == eval_functor_mor(tree, (f,)).then(eval_functor_mor(tree, (g,)))
    assert composite == eval_functor_mor(tree, (f,), then=eval_functor_mor(tree, (g,)))
    assert eval_functor_mor(tree, (FiniteFn.identity(FiniteSet(n)),)) == FiniteFn.identity(
        eval_functor(tree, (FiniteSet(n),))
    )


# -- tree enumeration --------------------------------------------------------


def brute_trees(sig: Signature, depth: int, node) -> set:
    """All well-formed trees of height < depth, grown level by level."""
    levels = set()
    for _ in range(depth):
        grown = set()
        for op in range(sig.ops.size):
            k = sig.arities[op].size
            for kids in itertools.product(levels, repeat=k):
                grown.add(node(op, kids))
        levels |= grown
    return levels


def test_wtype_enumerate_matches_brute_force():
    for sig in (BIN, Signature.of(0, 1), Signature.of(0, 0, 2)):
        node = kappa_sigma(sig).node
        for depth in range(4):
            got = wtype_enumerate(sig, depth, node)
            expected = brute_trees(sig, depth, node)
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
        current = eval_functor(Container(BIN), (current,))
    for depth in range(5):
        assert len(wtype_enumerate(BIN, depth, kappa_sigma(BIN).node)) == sizes[depth]
    assert sizes == [0, 1, 2, 5, 26]


def test_wtype_enumerate_empty_signature():
    empty = Signature.of()
    assert wtype_enumerate(empty, 3, kappa_sigma(empty).node) == []
