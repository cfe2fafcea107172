import itertools
import random
import sys
import time

import pytest

from muiter import size
from muiter.checks import (
    check_basis,
    check_cocone_laws,
    check_filtered,
    check_functor_laws,
    check_join_bounds,
    check_order_laws,
)
from muiter.dsl import parse_script
from muiter.errors import BudgetExceeded, ShapeMismatch
from muiter.finset import FiniteSet
from muiter.functors import Constant, Identity, Product, Sum

from muiter.signature import Signature
from muiter.size import (
    NatBackend,
    filtered_sample_check,
    height,
    kappa_sigma,
    nat_backend,
    successor_tower,
)
from reference import reference_sample_tree, tree_key, wtype_enumerate

BIN = Signature.of(0, 2, labels=["leaf", "node"])


class PlumpRule:
    """The paper's order, straight from its mutually recursive definition.

    s <= t iff every child of s is < t; s < t iff s <= some child of t.
    Memoised on the pair, so shared subtrees are compared once.  It does
    not use heights, which makes it an oracle for the height comparison.
    """

    def __init__(self):
        self._lt = {}
        self._leq = {}

    def lt(self, s, t):
        if (s, t) not in self._lt:
            self._lt[(s, t)] = any(self.leq(s, c) for c in t.children)
        return self._lt[(s, t)]

    def leq(self, s, t):
        if (s, t) not in self._leq:
            self._leq[(s, t)] = all(self.lt(c, t) for c in s.children)
        return self._leq[(s, t)]


def assert_order_agrees(backend, rule, s, t):
    assert backend.lt(s, t) == rule.lt(s, t) == (s.height() < t.height())
    assert backend.leq(s, t) == rule.leq(s, t) == (s.height() <= t.height())


def all_extended_trees(backend, depth):
    return wtype_enumerate(backend.extended, depth, backend.node)


# -- the order agrees with the rule and with tree height, exhaustively -------


def test_plump_order_is_height_order_empty_base():
    backend, rule = kappa_sigma(Signature.of()), PlumpRule()
    trees = all_extended_trees(backend, 4)
    assert len(trees) == 26
    for s, t in itertools.product(trees, repeat=2):
        assert_order_agrees(backend, rule, s, t)


def test_plump_order_is_height_order_binary_base():
    # extended signature has two nullary and two binary ops, so the tree
    # counts run 0, 2, 10, 202; all pairs at the last depth stay cheap
    backend, rule = kappa_sigma(BIN), PlumpRule()
    trees = all_extended_trees(backend, 3)
    assert len(trees) == 202
    for s, t in itertools.product(trees, repeat=2):
        assert_order_agrees(backend, rule, s, t)


# -- laws beyond the exhaustive bound ----------------------------------------


def test_order_laws_on_random_deep_trees():
    backend, rule = kappa_sigma(BIN), PlumpRule()
    rng = random.Random(7)
    trees = backend.sample_indices(rng, 60, 6)
    for _ in range(400):
        a, b, c = (trees[rng.randrange(len(trees))] for _ in range(3))
        assert_order_agrees(backend, rule, a, b)
        assert not backend.lt(a, a)
        assert backend.leq(a, a)
        if backend.lt(a, b):
            assert backend.leq(a, b)
        if backend.lt(a, b) and backend.leq(b, c):
            assert backend.lt(a, c)
        if backend.leq(a, b) and backend.lt(b, c):
            assert backend.lt(a, c)
        if backend.leq(a, b) and backend.leq(b, c):
            assert backend.leq(a, c)
        # lax comparability is total here, which keeps fragments directed
        assert backend.leq(a, b) or backend.leq(b, a)


def test_children_sit_strictly_below():
    backend = kappa_sigma(Signature.of())
    rng = random.Random(3)
    for tree in backend.sample_indices(rng, 50, 5):
        for child in tree.children:
            assert backend.lt(child, tree)
            assert backend.leq(child, tree)


# -- index structure ----------------------------------------------------------


def test_kappa_extends_signature_at_the_end():
    backend = kappa_sigma(BIN)
    assert backend.extended.ops.size == 4
    assert backend.bottom_op == 2
    assert backend.join_op == 3
    assert backend.extended.arities[backend.bottom_op].size == 0
    assert backend.extended.arities[backend.join_op].size == 2
    assert backend.extended.op_label(2) == "bot"
    assert backend.extended.op_label(3) == "join"
    # base operation labels survive
    assert backend.extended.op_label(0) == "leaf"


def test_bottom_join_succ_basis():
    backend = kappa_sigma(Signature.of())
    bot = backend.bottom()
    assert bot.children == ()
    assert backend.predecessor_basis(bot) == ()
    one = backend.succ(bot)
    assert one == backend.join(bot, bot)
    assert backend.predecessor_basis(one) == (bot, bot)
    mixed = backend.join(bot, one)
    assert backend.predecessor_basis(mixed) == (bot, one)
    assert backend.lt(bot, mixed) and backend.lt(one, mixed)


def test_render_folds_successors():
    backend = kappa_sigma(Signature.of())
    tower = successor_tower(backend, 4)
    assert backend.render(tower[0]) == "bot"
    assert backend.render(tower[3]) == "succ(succ(succ(bot)))"
    mixed = backend.join(backend.bottom(), tower[1])
    assert backend.render(mixed) == "join(bot, succ(bot))"


@pytest.mark.parametrize("spec", ["nat", "plump", "plump:S"])
def test_a_stage_index_is_the_render_of_that_many_successors_of_bottom(spec):
    # stage k's index is written by arithmetic, with no tree built
    (decl,) = parse_script("sig S = leaf:0 | node:2 | bot2:0\n")
    backend = {
        "nat": nat_backend(), "plump": kappa_sigma(Signature.of()), "plump:S": kappa_sigma(decl.sig)
    }[spec]
    index = backend.bottom()
    for k in range(301):
        assert backend.stage_index(k) == backend.render(index), k
        index = backend.succ(index)


def test_key_distinguishes_distinct_trees():
    backend = kappa_sigma(Signature.of())
    bot = backend.bottom()
    one = backend.succ(bot)
    assert bot is not one
    assert backend.join(bot, one) is not backend.join(one, bot)
    assert one is backend.join(bot, bot)
    assert len({bot, one, backend.join(bot, one), backend.join(one, bot)}) == 4


def test_nat_backend():
    backend = nat_backend()
    assert isinstance(backend, NatBackend)
    assert backend.bottom() == 0
    assert backend.succ(3) == 4
    assert backend.join(2, 5) == 6
    assert backend.predecessor_basis(0) == ()
    assert backend.predecessor_basis(4) == (3,)
    assert backend.lt(1, 2) and not backend.lt(2, 2)
    assert backend.leq(2, 2)
    assert backend.render(7) == "7"
    assert successor_tower(backend, 4) == [0, 1, 2, 3]


def test_successor_tower_strictly_increases():
    for backend in (nat_backend(), kappa_sigma(BIN)):
        tower = successor_tower(backend, 5)
        assert len(tower) == 5
        for lo, hi in zip(tower, tower[1:]):
            assert backend.lt(lo, hi)


def test_height_helper():
    assert height(4) == 4
    backend = kappa_sigma(Signature.of())
    assert height(backend.bottom()) == 0
    assert height(backend.succ(backend.succ(backend.bottom()))) == 2


def test_plump_compare_shared_arena():
    # trees built through node and by bottom and succ come from one table
    backend = kappa_sigma(Signature.of())
    bot = backend.node(0)
    one = backend.node(1, (bot, bot))
    assert bot is backend.bottom() and one is backend.succ(bot)
    assert (backend.lt(bot, one), backend.leq(bot, one)) == (True, True)
    assert (backend.lt(one, bot), backend.leq(one, bot)) == (False, False)
    assert (backend.lt(one, one), backend.leq(one, one)) == (False, True)


# -- bounds for finite families ----------------------------------------------


def test_filtered_sample_check_nat():
    backend = nat_backend()
    ok, witnesses = filtered_sample_check(backend, [(0, (1, 5, 2)), (0, ())])
    assert ok
    assert len(witnesses) == 2
    for (_, family), w in zip([(0, (1, 5, 2)), (0, ())], [witnesses[0], witnesses[1]]):
        for member in family:
            assert backend.lt(member, w)


def test_filtered_sample_check_plump():
    backend = kappa_sigma(BIN)
    rng = random.Random(5)
    families = []
    for _ in range(30):
        op = rng.randrange(2)
        width = backend.base.arities[op].size
        families.append(
            (op, tuple(backend.sample_tree(rng, 3) for _ in range(width)))
        )
    ok, witnesses = filtered_sample_check(backend, families)
    assert ok
    for (_, family), w in zip(families, witnesses):
        for member in family:
            assert backend.lt(member, w)


def is_tree_of(sig, tree) -> bool:
    """Every node of tree has as many children as its op's arity in sig."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.op >= sig.ops.size or len(node.children) != sig.arities[node.op].size:
            return False
        stack.extend(node.children)
    return True


def test_filtered_sample_check_witnesses_are_trees_of_the_extended_signature():
    # a family of no base operation (any op of bare plump, or an op past
    # the base signature) is bounded by joins from bottom, not a node over it
    rng = random.Random(9)
    for backend in (kappa_sigma(Signature.of()), kappa_sigma(BIN)):
        bot = backend.bottom()
        s = backend.succ(bot)
        families = [(0, (s, bot, s)), (0, ()), (backend.bottom_op, (s, s))]
        for width in (0, 1, 2, 3) * 10:
            op = rng.randrange(backend.extended.ops.size)
            families.append((op, tuple(backend.sample_tree(rng, 3) for _ in range(width))))
        families = [
            (op, family) for op, family in families
            if op >= backend.base.ops.size or backend.base.arities[op].size == len(family)
        ]
        assert len(families) > 20
        ok, witnesses = filtered_sample_check(backend, families)
        assert ok
        for (_, family), w in zip(families, witnesses):
            assert is_tree_of(backend.extended, w)
            assert all(backend.lt(member, w) for member in family)


def test_filtered_sample_check_rejects_wrong_width():
    backend = kappa_sigma(BIN)
    with pytest.raises(ShapeMismatch):
        filtered_sample_check(backend, [(1, (backend.bottom(),))])


# -- sampling -------------------------------------------------------------------


@pytest.mark.parametrize(
    "sig", [Signature.of(), Signature.of(0, 2), Signature.of(0, 1, 3)], ids=str
)
def test_sample_tree_draws_the_trees_of_the_recursive_reference(sig):
    backend = kappa_sigma(sig)
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        got = backend.sample_indices(rng, 5, 6)
        want = [reference_sample_tree(backend, ref, ref.randint(0, 6)) for _ in range(5)]
        assert all(g is w for g, w in zip(got, want))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "n", [1, 2, 3, 5, 7, 8, 9, 255, 256, 257, 2**32 - 1, 2**32 + 1, 10**20]
)
def test_draws_read_the_words_of_randrange_choice_and_randint(n):
    ways = [lambda rng: rng.randrange(n), lambda rng: rng.randint(0, n - 1)]
    if n <= sys.maxsize:  # no sequence is longer
        ways.append(lambda rng: rng.choice(range(n)))
    for seed in range(50):
        rng = random.Random(seed)
        got = size.draws(rng, n, 20)
        after = rng.getrandbits(64)
        for way in ways:
            ref = random.Random(seed)
            assert got == [way(ref) for _ in range(20)]
            assert ref.getrandbits(64) == after


def test_no_draws_below_zero():
    rng = random.Random(5)
    state = rng.getstate()
    assert size.draws(rng, 0, 0) == []
    assert rng.getstate() == state
    with pytest.raises(ValueError):
        size.draws(rng, 0, 1)
    with pytest.raises(ValueError):
        size.draws(rng, -3, 2)
    # a height below 0 has nothing to draw from, as randint(0, -1) has not
    for backend in (nat_backend(), kappa_sigma(MIXED)):
        assert backend.sample_indices(rng, 0, -1) == []
        with pytest.raises(ValueError):
            backend.sample_indices(rng, 1, -1)
    assert rng.getstate() == state


# several nullary ops and a unary one besides the fresh bottom and join
MIXED = Signature.of(0, 0, 1, 3, labels=["a", "c", "u", "b"])
# in the sig column: the row's suite runs on the nat backend
NAT = None
SQUARE_PLUS_ONE = Sum((Constant(FiniteSet(1)), Product((Identity(), Identity()))))


def cocone_laws(backend, rng, samples, depth):
    # draws diagrams of finite sets, so the backend goes unused
    return check_cocone_laws(rng, samples, depth)


def functor_laws(backend, rng, samples, depth):
    return check_functor_laws("F", SQUARE_PLUS_ONE, rng, samples, depth)


@pytest.mark.parametrize(
    "sig, check, samples, depth, after",
    [
        (Signature.of(), check_order_laws, 60, 4, 2978523055816782699),
        (Signature.of(), check_join_bounds, 60, 4, 3678339887190049727),
        (Signature.of(), check_filtered, 60, 4, 18171578477455850508),
        (MIXED, check_order_laws, 60, 4, 15034963992056846430),
        (MIXED, check_join_bounds, 60, 4, 2930376959912077250),
        (MIXED, check_filtered, 60, 4, 14087405458177654092),
        # the chain workload's check: 2,000 samples at depth 5
        (Signature.of(), check_order_laws, 2000, 5, 9789239820177955647),
        (Signature.of(), check_join_bounds, 2000, 5, 13121600293426983576),
        (Signature.of(), check_filtered, 2000, 5, 2433347135569471647),
        (MIXED, check_order_laws, 2000, 5, 5534458545316100056),
        (MIXED, check_join_bounds, 2000, 5, 10276163330720092485),
        (MIXED, check_filtered, 2000, 5, 17753513234414555462),
        (Signature.of(), check_basis, 60, 4, 2343444335464062095),
        (MIXED, check_basis, 60, 4, 6320515648865345877),
        (Signature.of(), check_basis, 500, 5, 5254001303576247984),
        (MIXED, check_basis, 500, 5, 11326343154833432095),
        (NAT, check_order_laws, 60, 4, 16128585671278343069),
        (NAT, check_join_bounds, 60, 4, 222524240882821610),
        (NAT, check_filtered, 60, 4, 2266039225740819858),
        (NAT, check_order_laws, 2000, 5, 3547980676644882425),
        (NAT, check_join_bounds, 2000, 5, 3964201410761691272),
        (NAT, check_filtered, 2000, 5, 1718658026033309635),
        (NAT, cocone_laws, 60, 4, 16944222547655682649),
        (NAT, cocone_laws, 250, 5, 14129909130429911554),
        (NAT, functor_laws, 20, 3, 4304291062942567561),
        (NAT, functor_laws, 100, 5, 12310527734866755958),
    ],
    ids=[
        "order-laws", "join-bounds", "filtered-bounds",
        "mixed-order-laws", "mixed-join-bounds", "mixed-filtered-bounds",
        "chain-order-laws", "chain-join-bounds", "chain-filtered-bounds",
        "chain-mixed-order-laws", "chain-mixed-join-bounds",
        "chain-mixed-filtered-bounds",
        "basis", "mixed-basis", "chain-basis", "chain-mixed-basis",
        "nat-order-laws", "nat-join-bounds", "nat-filtered-bounds",
        "chain-nat-order-laws", "chain-nat-join-bounds",
        "chain-nat-filtered-bounds",
        "cocone-laws", "chain-cocone-laws", "functor-laws", "deep-functor-laws",
    ],
)
def test_check_suites_draw_the_same_samples(sig, check, samples, depth, after):
    # a suite's report only counts its samples; the generator's next word
    # pins every draw the suite made before it
    rng = random.Random(7)
    backend = nat_backend() if sig is NAT else kappa_sigma(sig)
    assert check(backend, rng, samples, depth)["ok"]
    assert rng.getrandbits(64) == after


class CountingOrder:
    """A backend that counts the comparisons lt and leq make."""

    def __init__(self, backend):
        self.backend = backend
        self.comparisons = 0

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def lt(self, i, j):
        self.comparisons += 1
        return self.backend.lt(i, j)

    def leq(self, i, j):
        self.comparisons += 1
        return self.backend.leq(i, j)


@pytest.mark.parametrize(
    "backend", [nat_backend(), kappa_sigma(MIXED)], ids=["nat", "plump-mixed"]
)
def test_order_laws_compare_each_pair_of_a_triple_once(backend):
    # four comparisons per sampled index, then lt and leq on each of a
    # triple's three pairs
    for samples in (3, 60, 500):
        counting = CountingOrder(backend)
        report = check_order_laws(counting, random.Random(samples), samples, 4)
        assert report["ok"]
        assert counting.comparisons == 4 * samples + 6 * samples


def test_the_sampler_keeps_every_draw_up_to_its_cap(monkeypatch):
    # a backend's sampler draws at most MAX_DRAWN nodes over its life: the
    # draws up to the cap are the uncapped ones, and the next node stops
    sig = Signature.of(0, 2)
    uncapped, rng = kappa_sigma(sig), random.Random(3)
    drawn = [uncapped.sample_tree(rng, 6) for _ in range(40)]
    sizes = [tree_nodes(t) for t in drawn]
    assert uncapped.drawn == sum(sizes)
    # a cap at the last draw, and one a node into a tree of several
    inside = next(k for k, n in enumerate(sizes) if n > 1)
    for cap, kept in ((sum(sizes), 40), (sum(sizes[:inside]) + 1, inside)):
        monkeypatch.setattr(size, "MAX_DRAWN", cap)
        capped, rng = kappa_sigma(sig), random.Random(3)
        again = [capped.sample_tree(rng, 6) for _ in range(kept)]
        assert list(map(tree_key, again)) == list(map(tree_key, drawn[:kept]))
        with pytest.raises(BudgetExceeded, match=rf"exceed the cap {cap}$"):
            capped.sample_tree(rng, 6)
        assert capped.drawn == cap  # and it stays stopped


def tree_nodes(tree) -> int:
    """The nodes of a tree written out, shared subtrees counted each time."""
    count, stack = 0, [tree]
    while stack:
        count += 1
        stack.extend(stack.pop().children)
    return count


class AlwaysFirst:
    """An rng stub that draws op 0, and the first nullary op at height 0.

    Every word it gives is 0, the first value of any draw; the sampler
    reads nothing of a generator but getrandbits.
    """

    def getrandbits(self, k):
        return 0


def test_sample_tree_builds_a_deep_path_without_recursion():
    # op 0 is unary: the tree is a path of 5,000 of them over bottom
    backend = kappa_sigma(Signature.of(1))
    tree = backend.sample_tree(AlwaysFirst(), 5000)
    assert tree.height() == 5000
    for _ in range(5000):
        assert tree.op == 0
        (tree,) = tree.children
    assert tree is backend.bottom()


# -- hash-consing ---------------------------------------------------------------


def test_wtree_interns_equal_trees():
    # within one backend; a second backend keeps trees of its own
    backend = kappa_sigma(BIN)
    node = backend.node
    b = node(0)
    assert node(0) is b is backend.leaf_of[0]
    assert node(1, (b, b)) is node(1, (b, b))
    assert node(1, [b, b]) is node(1, (b, b))
    assert node(1, (b, b)) is not node(3, (b, b))
    assert backend.succ(b) is node(3, (b, b))
    other = kappa_sigma(BIN).node
    assert other(0) is not b and tree_key(other(0)) == tree_key(b)


def test_deep_successor_towers_are_shared_and_compare_at_once():
    # each level is join(t, t): unfolded, the top tree has 2**201 - 1 nodes
    backend = kappa_sigma(Signature.of())
    start = time.perf_counter()
    first = successor_tower(backend, 201)[-1]
    second = successor_tower(backend, 201)[-1]
    assert first is second
    below = first.children[0]
    assert backend.lt(below, first) and not backend.lt(first, first)
    assert backend.leq(first, second) and not backend.leq(first, below)
    assert height(first) == 200
    assert time.perf_counter() - start < 1.0
