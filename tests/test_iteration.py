import itertools
import random
import time
import tracemalloc

import pytest

from muiter.colimit import Cocone
from muiter.errors import BudgetExceeded, IntegrityError, NoAlgebra, ShapeMismatch
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import (
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
    eval_functor,
    eval_functor_mor,
)
from muiter.iteration import (
    MAX_CARRIER,
    NESTED_BUDGET,
    AlgebraSpec,
    IterationState,
    Profile,
    catamorphism,
    deflationary_nu,
    free_algebra,
    inflationary_iterate,
    mu_initial_algebra,
    mu_parameterized_map,
    nested_chain,
    tower,
    tower_fold,
)
from muiter.signature import Signature, WTree
from muiter.size import kappa_sigma, nat_backend, successor_tower
from launch import run_limited
from reference import (
    RecursiveIterationState,
    container_decode,
    container_encode,
    fold_equation_holds,
    reference_cata,
    reference_mu,
    reference_nu,
    wtype_enumerate,
)
from test_functors import BATTERY, FUSED

BIN = Signature.of(0, 2, labels=["leaf", "node"])
TREES = Container(BIN)
POLY = Sum((Constant(FiniteSet(1)), Product((Identity(), Identity()))))
PAIRS_UP_TO_SWAP = Sum((Constant(FiniteSet(1)), SymContainer(2)))
LISTS_BODY = Sum((Constant(FiniteSet(1)), Product((Projection(0), Projection(1)))))


def sizes_of(profile):
    return [entry["size"] for entry in profile]


# -- stage profiles -----------------------------------------------------------


def test_polynomial_profile_on_nat():
    backend = nat_backend()
    state = inflationary_iterate(POLY, backend, successor_tower(backend, 5))
    assert sizes_of(state.profile()) == [0, 1, 2, 5, 26]


def test_polynomial_profile_on_plump_tower():
    backend = kappa_sigma(Signature.of())
    state = inflationary_iterate(POLY, backend, successor_tower(backend, 5))
    assert sizes_of(state.profile()) == [0, 1, 2, 5, 26]


def test_budget_exhaustion_reports_partial_profile():
    backend = nat_backend()
    with pytest.raises(BudgetExceeded) as info:
        inflationary_iterate(POLY, backend, successor_tower(backend, 9), budget=5)
    assert sizes_of(info.value.profile) == [0, 1, 2, 5, 26]
    assert [e["index"] for e in info.value.profile] == ["0", "1", "2", "3", "4"]


def test_budget_counts_distinct_stages_not_requests():
    backend = nat_backend()
    state = inflationary_iterate(POLY, backend, [3, 3, 2, 3], budget=4)
    assert sizes_of(state.profile()) == [0, 1, 2, 5]


def test_carrier_cap_guards_explosions():
    # 2 + X^3 grows 0, 2, 10, 1002, 1006012010: the cap stops stage 4
    backend = nat_backend()
    wide = Sum((Constant(FiniteSet(2)), Product((Identity(),) * 3)))
    with pytest.raises(BudgetExceeded) as info:
        inflationary_iterate(wide, backend, successor_tower(backend, 8))
    assert str(info.value) == "carrier of size 1006012010 exceeds the cap 500000"
    assert sizes_of(info.value.profile) == [0, 2, 10, 1002]


def test_a_stage_of_exactly_the_cap_is_built_by_both_engines():
    # one element more stops both, as the one-past-the-cap case of
    # test_a_cap_stop_writes_a_long_size_by_its_bit_length shows
    at_cap = Constant(FiniteSet(MAX_CARRIER))
    assert sizes_of(tower(at_cap, nat_backend(), length=2)) == [0, 500_000]
    state = inflationary_iterate(at_cap, nat_backend(), [0, 1])
    assert sizes_of(state.profile()) == [0, 500_000]


def test_sym_pair_profile():
    backend = nat_backend()
    state = inflationary_iterate(
        PAIRS_UP_TO_SWAP, backend, successor_tower(backend, 5)
    )
    assert sizes_of(state.profile()) == [0, 1, 2, 4, 11]


def test_iteration_rejects_binary_expressions():
    with pytest.raises(ShapeMismatch):
        inflationary_iterate(LISTS_BODY, nat_backend(), [0])


def test_profiles_are_deterministic():
    backend = kappa_sigma(Signature.of())
    runs = []
    for _ in range(2):
        state = inflationary_iterate(POLY, backend, successor_tower(backend, 4))
        runs.append((state.profile(), state.stage(backend.bottom()).apex.size))
    assert runs[0] == runs[1]


# -- irregular indices agree with rank ----------------------------------------


def test_plump_stage_depends_only_on_height():
    backend = kappa_sigma(Signature.of())
    bot = backend.bottom()
    one = backend.succ(bot)
    lopsided = backend.join(bot, one)      # height 2, not a tower index
    mirrored = backend.join(one, bot)
    tower2 = backend.succ(one)
    state = inflationary_iterate(POLY, backend, [lopsided, mirrored, tower2])
    assert state.stage(lopsided).apex.size == 2
    assert state.stage(mirrored).apex.size == 2
    assert state.stage(tower2).apex.size == 2


def test_equal_height_stages_connect_by_mutually_inverse_bijections():
    backend = kappa_sigma(Signature.of())
    bot = backend.bottom()
    one = backend.succ(bot)
    lopsided = backend.join(bot, one)
    tower2 = backend.succ(one)
    state = inflationary_iterate(POLY, backend, [lopsided, tower2])
    forward = state.connect(lopsided, tower2)
    backward = state.connect(tower2, lopsided)
    assert forward.is_bijection()
    assert forward.then(backward) == FiniteFn.identity(forward.dom)
    assert backward.then(forward) == FiniteFn.identity(backward.dom)


def test_connect_to_duplicate_key_is_identity():
    backend = nat_backend()
    state = inflationary_iterate(POLY, backend, [3])
    conn = state.connect(2, 2)
    assert conn == FiniteFn.identity(state.stage(2).apex)


# -- the stages are the sets of trees ------------------------------------------


def nat_embed(state, tree, n):
    """Canonical element of stage n for a tree of height below n.

    Children embed one stage down, then the filled shape goes through the
    fresh layer's leg.  Uses only the engine's published legs and the
    container layout.
    """
    below = state.stage(n - 1).apex.size
    args = tuple(nat_embed(state, c, n - 1) for c in tree.children)
    return state.leg(n - 1, n).table[container_encode(BIN, below, tree.op, args)]


def brute_leaf_parity(tree: WTree) -> int:
    if not tree.children:
        return 1
    return sum(brute_leaf_parity(c) for c in tree.children) % 2


def leaf_parity_algebra(carrier=FiniteSet(2)):
    shapes = eval_functor(Container(BIN), (carrier,))
    table = []
    for idx in range(shapes.size):
        op, args = container_decode(BIN, carrier.size, idx)
        if op == 0:
            table.append(1)
        else:
            table.append(sum(args) % 2)
    return AlgebraSpec(carrier, FiniteFn(shapes, carrier, table))


def test_stages_enumerate_trees_of_bounded_height():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 5))
    node = kappa_sigma(BIN).node
    for n in range(1, 5):
        trees = wtype_enumerate(BIN, n, node)
        images = [nat_embed(state, t, n) for t in trees]
        assert len(set(images)) == len(trees)
        assert set(images) == set(range(state.stage(n).apex.size))


def test_connecting_maps_preserve_tree_identity():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 5))
    node = kappa_sigma(BIN).node
    for n in range(1, 4):
        for t in wtype_enumerate(BIN, n, node):
            lo = nat_embed(state, t, n)
            hi = nat_embed(state, t, n + 1)
            assert state.connect(n, n + 1).table[lo] == hi


def test_catamorphism_agrees_with_direct_tree_fold():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 5))
    alg, node = leaf_parity_algebra(), kappa_sigma(BIN).node
    for n in range(1, 5):
        h = catamorphism(state, alg, n)
        for t in wtype_enumerate(BIN, n, node):
            assert h.table[nat_embed(state, t, n)] == brute_leaf_parity(t)


def test_catamorphism_on_plump_tower_matches_nat():
    nat_state = inflationary_iterate(
        TREES, nat_backend(), successor_tower(nat_backend(), 4)
    )
    plump = kappa_sigma(BIN)
    plump_state = inflationary_iterate(TREES, plump, successor_tower(plump, 4))
    alg = leaf_parity_algebra()
    h_nat = catamorphism(nat_state, alg, 3)
    h_plump = catamorphism(plump_state, alg, successor_tower(plump, 4)[3])
    assert h_nat.table == h_plump.table


def test_fold_equation_holds_on_every_memoized_pair():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 5))
    alg = leaf_parity_algebra()
    indices = list(state.stages)
    for j, i in itertools.product(indices, repeat=2):
        if not backend.lt(j, i):
            continue
        h = catamorphism(state, alg, i)
        assert fold_equation_holds(state, alg, h, j, i)


def test_fold_restricts_along_connecting_maps():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 5))
    alg = leaf_parity_algebra()
    h4 = catamorphism(state, alg, 4)
    h3 = catamorphism(state, alg, 3)
    assert state.connect(3, 4).then(h4) == h3


def test_catamorphism_validates_structure_domain():
    backend = nat_backend()
    state = inflationary_iterate(TREES, backend, successor_tower(backend, 3))
    bad = AlgebraSpec(FiniteSet(2), FiniteFn(FiniteSet(3), FiniteSet(2), (0, 0, 1)))
    with pytest.raises(NoAlgebra):
        catamorphism(state, bad, 2)


# functors whose folds go through every kind of node that fuses the
# structure map into a layer: a sum and a product, a container with a
# nullary op, a quotient container, a composite, and a nested fixpoint
FOLD_FUNCTORS = [
    POLY,
    TREES,
    Sum((Constant(FiniteSet(2)), SymContainer(2))),
    # 1 + (0 + X)*(0 + X): an empty part in every factor
    Compose(POLY, (Sum((Constant(FiniteSet(0)), Identity())),)),
    # 1 + X * (mu Y. X + Y*0), a fixpoint that is X itself
    Sum(
        (
            Constant(FiniteSet(1)),
            Product(
                (
                    Identity(),
                    MuParam(
                        Sum(
                            (
                                Projection(0),
                                Product((Projection(1), Constant(FiniteSet(0)))),
                            )
                        )
                    ),
                )
            ),
        )
    ),
]


@pytest.mark.parametrize("size", ["nat", "plump"])
@pytest.mark.parametrize(
    "functor", FOLD_FUNCTORS, ids=[f"f{k}" for k in range(len(FOLD_FUNCTORS))]
)
def test_catamorphism_matches_the_two_step_reference(functor, size):
    # the reference builds F(fold_j) and then maps it through the structure;
    # under plump also at joins of two stages, whose folds read both
    backend = (
        nat_backend() if size == "nat" else kappa_sigma(Signature.of())
    )
    tower = successor_tower(backend, 6)
    if size == "plump":
        tower += [backend.join(a, b) for a, b in itertools.combinations(tower[:4], 2)]
    state = inflationary_iterate(functor, backend, tower, budget=16)
    rng = random.Random(f"{size}:{functor}")
    for n in (1, 3, 10, 11):
        carrier = FiniteSet(n)
        fa = eval_functor(functor, (carrier,))
        table = [rng.randrange(n) for _ in range(fa.size)]
        alg = AlgebraSpec(carrier, FiniteFn(fa, carrier, table))
        for i in tower:
            assert catamorphism(state, alg, i) == reference_cata(state, alg, i)


@pytest.mark.parametrize("size", ["nat", "plump"])
@pytest.mark.parametrize(
    "functor", FOLD_FUNCTORS, ids=[f"f{k}" for k in range(len(FOLD_FUNCTORS))]
)
def test_tower_fold_matches_the_colimit_fold_at_every_stage(functor, size):
    backend = (
        nat_backend() if size == "nat" else kappa_sigma(Signature.of())
    )
    indices = successor_tower(backend, 6)
    state = inflationary_iterate(functor, backend, indices)
    rng = random.Random(f"tower:{size}:{functor}")
    for n in (1, 3, 10, 11):
        carrier = FiniteSet(n)
        fa = eval_functor(functor, (carrier,))
        table = [rng.randrange(n) for _ in range(fa.size)]
        alg = AlgebraSpec(carrier, FiniteFn(fa, carrier, table))
        for k, i in enumerate(indices):
            assert tower_fold(functor, alg, k) == catamorphism(state, alg, i)


def test_tower_fold_validates_structure_domain():
    bad = AlgebraSpec(FiniteSet(2), FiniteFn(FiniteSet(3), FiniteSet(2), (0, 1, 0)))
    with pytest.raises(NoAlgebra, match="functor applied to the carrier has 5"):
        tower_fold(TREES, bad, 2)


def test_a_deep_tower_fold_needs_no_recursion():
    # a loop: no interpreter frame per stage
    alg = AlgebraSpec(FiniteSet(1), FiniteFn(FiniteSet(2), FiniteSet(1), (0, 0)))
    fold = tower_fold(Sum((Constant(FiniteSet(1)), Identity())), alg, 2000)
    assert tuple(fold.table) == (0,) * 2000


def tower_outcome(run):
    """The profile a chain run reports, and how it stopped if it did."""
    try:
        return run(), None
    except BudgetExceeded as stop:
        return stop.profile, str(stop)


@pytest.mark.parametrize("size", ["nat", "plump"])
@pytest.mark.parametrize(
    "length, budget, cap",
    [(0, 8, 500_000), (5, 8, 500_000), (7, 5, 600), (7, 6, 600), (9, 8, 500_000)],
)
def test_tower_stops_where_the_colimit_chain_stops(
    size, length, budget, cap, monkeypatch
):
    # both engines read the cap when they run, so a smaller one stops POLY
    # at 677, stage 5, under a budget of 6
    monkeypatch.setattr("muiter.iteration.MAX_CARRIER", cap)
    backend = nat_backend() if size == "nat" else kappa_sigma(Signature.of())

    def by_colimits():
        indices = successor_tower(backend, length)
        return inflationary_iterate(POLY, backend, indices, budget).profile()

    def by_sizes():
        profile = tower(POLY, backend, budget, length=length)
        assert list(profile.sizes) == sizes_of(profile)
        return profile

    assert tower_outcome(by_sizes) == tower_outcome(by_colimits)


def test_tower_without_a_length_stops_at_the_first_repeated_size():
    assert sizes_of(tower(Constant(FiniteSet(3)), nat_backend())) == [0, 3, 3]
    assert sizes_of(tower(Identity(), nat_backend(), first=1)) == [1, 1]
    # with a length, a repeated size does not stop it
    long = tower(Constant(FiniteSet(3)), nat_backend(), length=4)
    assert sizes_of(long) == [0, 3, 3, 3]


def test_a_profile_reads_as_its_rows():
    profile = tower(POLY, kappa_sigma(Signature.of()), length=4)
    rows = [
        {"index": "succ(" * k + "bot" + ")" * k, "size": size}
        for k, size in enumerate([0, 1, 2, 5])
    ]
    assert profile.sizes == (0, 1, 2, 5)
    assert len(profile) == 4
    assert list(profile) == rows
    assert [profile[k] for k in range(-4, 4)] == rows + rows
    assert profile == rows and rows == profile and profile == tuple(rows)
    assert profile != rows[:3] and profile != rows[:3] + [{"index": "bot", "size": 5}]
    assert profile != {"index": "bot", "size": 0}
    for k in (4, -5):
        with pytest.raises(IndexError):
            profile[k]
    with pytest.raises(AttributeError):
        profile.sizes = ()
    empty = tower(POLY, nat_backend(), length=0)
    assert (len(empty), list(empty), empty) == (0, [], [])


def test_a_stop_carries_the_profile_its_tower_made(monkeypatch):
    made = []

    class Kept(Profile):
        def __init__(self, sizes, backend):
            super().__init__(sizes, backend)
            made.append(self)

    monkeypatch.setattr("muiter.iteration.Profile", Kept)
    for run in (
        lambda: tower(POLY, nat_backend(), budget=3),
        lambda: tower(POLY, nat_backend(), budget=9, length=9),  # the cap
        lambda: mu_initial_algebra(POLY, kappa_sigma(Signature.of()), budget=5),
    ):
        made.clear()
        with pytest.raises(BudgetExceeded) as info:
            run()
        assert len(made) == 1 and info.value.profile is made[0]


@pytest.mark.parametrize(
    "size, shown",
    [
        (MAX_CARRIER + 1, "500001"),
        (10**1000 - 1, str(10**1000 - 1)),
        (10**1000, "at least 2**3321"),
        (2**20000 + 1, "at least 2**20000"),
    ],
    ids=["one-past-the-cap", "1000-digits", "1001-digits", "2**20000+1"],
)
def test_a_cap_stop_writes_a_long_size_by_its_bit_length(size, shown):
    # str() refuses an int of more than 4,300 digits
    huge = Constant(FiniteSet(size))
    message = f"carrier of size {shown} exceeds the cap 500000"
    for run in (
        lambda: tower(huge, nat_backend(), length=2),
        lambda: inflationary_iterate(huge, nat_backend(), [0, 1]),
    ):
        with pytest.raises(BudgetExceeded) as info:
            run()
        assert str(info.value) == message
        assert info.value.profile == [{"index": "0", "size": 0}]


def test_arrow_free_stages_build_no_leg_tables():
    backend = nat_backend()
    tracemalloc.start()
    try:
        state = inflationary_iterate(POLY, backend, successor_tower(backend, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.stage(6).apex.size == 458_330
    # a 458,330-entry leg table alone would take over 3.5 MB
    assert peak < 1_000_000


SUCC = Sum((Constant(FiniteSet(1)), Identity()))


def test_chain_maps_stay_ranges_in_linear_space():
    # along 1 + X every connecting map and leg is an inclusion; stored as
    # tuples, the tables of 2000 stages peak at about 82 MiB
    state = IterationState(SUCC, nat_backend(), budget=2000)
    tracemalloc.start()
    try:
        for n in range(1, 2000):
            state.connect(n - 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# 1 + X into {0, 1}: nil goes to 0, a successor flips its predecessor
SUCC_PARITY = AlgebraSpec(FiniteSet(2), FiniteFn(FiniteSet(3), FiniteSet(2), (0, 1, 0)))


def test_deep_nat_stages_and_their_fold_need_no_recursion():
    # each stage's basis is the one before, past the interpreter's 1,000
    # frames when walked by recursion
    start = time.perf_counter()
    state = inflationary_iterate(SUCC, nat_backend(), [1500], budget=3000)
    assert len(state.stages) == 1501
    fold = catamorphism(state, SUCC_PARITY, 1500)
    assert fold == tower_fold(SUCC, SUCC_PARITY, 1500)
    assert time.perf_counter() - start < 10


def test_a_deep_plump_stage_needs_no_recursion():
    backend = kappa_sigma(Signature.of())
    index = backend.bottom()
    for _ in range(1200):
        index = backend.succ(index)
    start = time.perf_counter()
    state = inflationary_iterate(SUCC, backend, [index], budget=3000)
    assert state.stage(index).apex.size == 1200
    assert time.perf_counter() - start < 10


def test_a_fold_over_stages_built_one_at_a_time_needs_no_recursion():
    state = IterationState(SUCC, nat_backend(), budget=300)
    for n in range(251):
        state.stage(n)
    start = time.perf_counter()
    fold = catamorphism(state, SUCC_PARITY, 250)
    assert fold == tower_fold(SUCC, SUCC_PARITY, 250)
    assert time.perf_counter() - start < 10


def test_stage_maps_between_far_stages_need_no_recursion():
    # connect(1400, 1500) reads leg(1399, 1500), which reads connect(1399,
    # 1499), and so on down 1,400 levels
    def inclusion(m: int, n: int) -> FiniteFn:
        return FiniteFn(FiniteSet(m), FiniteSet(n), range(m))

    state = inflationary_iterate(SUCC, nat_backend(), [1500], budget=3000)
    start = time.perf_counter()
    assert state.connect(1400, 1500) == inclusion(1400, 1500)
    assert state.leg(1300, 1500) == inclusion(1301, 1500)
    assert state.leg(1400, 1500) == inclusion(1401, 1500)
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("size", ["nat", "plump"])
@pytest.mark.parametrize("functor", [POLY, SUCC, Container(BIN)], ids=["poly", "succ", "bin"])
def test_stage_maps_and_legs_match_the_recursive_reference(functor, size):
    # tower indices of height 0..4; under plump also joins of two of them,
    # a basis of two members, and a join over a join
    backend = nat_backend() if size == "nat" else kappa_sigma(Signature.of())
    indices = successor_tower(backend, 5)
    if size == "plump":
        joins = [backend.join(a, b) for a, b in itertools.combinations(indices[:4], 2)]
        indices += joins + [backend.join(joins[-1], indices[2])]
    loops = inflationary_iterate(functor, backend, indices, budget=64)
    recursive = RecursiveIterationState(functor, backend, budget=64)
    for i in indices:
        recursive.stage(i)
    pairs = [(j, i) for j in indices for i in indices if backend.leq(j, i)]
    assert len(pairs) > len(indices)
    for j, i in pairs:
        assert loops.connect(j, i) == recursive.connect(j, i)
        if backend.lt(j, i):
            assert loops.leg(j, i) == recursive.leg(j, i)
    assert loops._connects.keys() == recursive._connects.keys()
    assert loops._legs.keys() == recursive._legs.keys()


def test_one_stage_map_memoises_what_the_recursive_reference_memoises():
    # from the stages at j and i alone, connect(j, i) reads, for each member
    # m of j's basis outside i's, the stage map into the first member of i's
    # basis above m, as the recursion does; joins give bases of two members
    backend = kappa_sigma(Signature.of())
    tower = successor_tower(backend, 5)
    indices = tower + [backend.join(a, b) for a, b in itertools.combinations(tower[:4], 2)]
    pairs = [(j, i) for j in indices for i in indices if backend.lt(j, i)]
    for j, i in pairs:
        loops = inflationary_iterate(SUCC, backend, [j, i], budget=64)
        recursive = RecursiveIterationState(SUCC, backend, budget=64)
        recursive.stage(j)
        recursive.stage(i)
        assert loops.connect(j, i) == recursive.connect(j, i)
        assert loops._connects.keys() == recursive._connects.keys()
        assert loops._legs.keys() == recursive._legs.keys()


def test_long_chain_stops_at_the_budget_in_bounded_time_and_memory(tmp_path):
    # started from a small launcher, so the RSS is the script's, not pytest's
    code, payload, wall, rss = run_limited(
        tmp_path, "F = 1 + X\nmu F size nat budget 6000\n"
    )
    assert code == 2
    report = payload["reports"][0]
    assert report["error"]["type"] == "budget-exceeded"
    assert len(report["stages"]) == 6000
    assert wall < 5
    assert rss < 100_000_000


# -- well-definedness checks on a corrupted stage ---------------------------------

# POLY = 1 + X*X into {0, 1}: nil goes to 0, every pair to 1
NIL_OR_PAIR = AlgebraSpec(
    FiniteSet(2), FiniteFn(FiniteSet(5), FiniteSet(2), (0, 1, 1, 1, 1))
)


def corrupted_nat_stages(corruption: str):
    """POLY's stages 0..3 on nat, with stage 2's cocone corrupted.

    Stage 2 has one leg, a bijection from F(stage 1) = {nil, pair}.
    "merge" sends both elements to class 0; "widen" gives the apex a third
    class that no leg reaches.
    """
    backend = nat_backend()
    state = inflationary_iterate(POLY, backend, successor_tower(backend, 4))
    state.leg(1, 3)  # memoised while stage 2 is sound; connect(2, 3) reads it
    sound = state.stage(2)
    apex, quotient = sound.apex, sound._quotient
    if corruption == "merge":
        quotient = [0] * len(quotient)
    else:
        apex = FiniteSet(apex.size + 1)
    state.stages[2] = Cocone(sound.diagram, apex, quotient)
    return state


def test_stage_map_through_a_merging_leg_is_ill_defined():
    state = corrupted_nat_stages("merge")
    with pytest.raises(IntegrityError, match="stage map 2 -> 3 ill defined at class 0"):
        state.connect(2, 3)


def test_fold_through_a_merging_leg_is_ill_defined():
    state = corrupted_nat_stages("merge")
    with pytest.raises(IntegrityError, match="fold at 2 ill defined at class 0"):
        catamorphism(state, NIL_OR_PAIR, 2)


def test_stage_map_and_fold_need_a_representative_for_every_class():
    state = corrupted_nat_stages("widen")
    missing = "stage has a class with no layer representative"
    with pytest.raises(IntegrityError, match=missing):
        state.connect(2, 3)
    with pytest.raises(IntegrityError, match=missing):
        catamorphism(state, NIL_OR_PAIR, 2)


# -- stationarity ----------------------------------------------------------------


def test_constant_functor_goes_stationary_after_two_steps():
    result = mu_initial_algebra(Constant(FiniteSet(3)), nat_backend())
    assert result.stationary_at == 2
    assert result.carrier.size == 3
    assert result.structure.is_bijection()


def test_identity_functor_is_stationary_at_the_empty_set():
    result = mu_initial_algebra(Identity(), nat_backend())
    assert result.stationary_at == 1
    assert result.carrier.size == 0
    assert sizes_of(result.profile) == [0, 0]


def test_squaring_is_stationary_at_the_empty_set():
    result = mu_initial_algebra(Product((Identity(), Identity())), nat_backend())
    assert result.carrier.size == 0


def test_mu_on_plump_backend_matches_nat():
    for expr in (Constant(FiniteSet(3)), Product((Identity(), Identity()))):
        by_nat = mu_initial_algebra(expr, nat_backend())
        by_plump = mu_initial_algebra(expr, kappa_sigma(Signature.of()))
        assert by_nat.carrier.size == by_plump.carrier.size
        assert by_nat.structure.table == by_plump.structure.table
        assert by_nat.stationary_at == by_plump.stationary_at


def test_mu_iota_is_initial_among_small_algebras():
    # every function satisfying the fold equation must be the catamorphism
    result = mu_initial_algebra(Constant(FiniteSet(3)), nat_backend())
    carrier = FiniteSet(2)
    structure = FiniteFn(FiniteSet(3), carrier, (1, 0, 1))
    alg = AlgebraSpec(carrier, structure)
    fold = tower_fold(Constant(FiniteSet(3)), alg, result.stationary_at - 1)
    # h . iota == a . F(h) pins h on the whole carrier
    holds = []
    for table in itertools.product(range(2), repeat=3):
        h = FiniteFn(result.carrier, carrier, table)
        fh = eval_functor_mor(Constant(FiniteSet(3)), (h,))
        holds.append(result.structure.then(h) == fh.then(structure))
    assert sum(holds) == 1
    assert result.structure.then(fold) == eval_functor_mor(
        Constant(FiniteSet(3)), (fold,)
    ).then(structure)


def test_mu_budget_exceeded_carries_profile():
    with pytest.raises(BudgetExceeded) as info:
        mu_initial_algebra(POLY, nat_backend(), budget=5)
    assert sizes_of(info.value.profile) == [0, 1, 2, 5, 26]


# -- free algebras ----------------------------------------------------------------


def test_free_algebra_over_constant_base():
    gens = FiniteSet(2)
    result = free_algebra(Constant(FiniteSet(3)), gens, nat_backend())
    assert result.mu.carrier.size == 5
    assert result.unit.is_injective()
    assert result.structure.dom.size == 3
    # unit and structure jointly cover the carrier
    covered = set(result.unit.table) | set(result.structure.table)
    assert covered == set(range(5))


def test_free_algebra_without_generators_is_plain_mu():
    result = free_algebra(Product((Identity(), Identity())), FiniteSet(0), nat_backend())
    assert result.mu.carrier.size == 0
    assert tuple(result.unit.table) == ()


def test_free_algebra_of_squaring_counts_binary_trees():
    with pytest.raises(BudgetExceeded) as info:
        free_algebra(
            Product((Identity(), Identity())), FiniteSet(1), nat_backend(), budget=6
        )
    assert sizes_of(info.value.profile) == [0, 1, 2, 5, 26, 677]


def test_free_algebra_unit_is_mono_into_terms():
    gens = FiniteSet(3)
    result = free_algebra(Constant(FiniteSet(2)), gens, nat_backend())
    assert result.mu.carrier.size == 5
    assert sorted(result.unit.table) == sorted(
        set(range(5)) - set(result.structure.table)
    )


# -- parameterized fixpoints -------------------------------------------------------


def lists_over(n: int):
    """Lists over n letters: LISTS_BODY with its first slot fixed at n."""
    return Compose(LISTS_BODY, (Constant(FiniteSet(n)), Identity()))


def test_partial_application_fixes_first_slot():
    # lists over 2 letters: stage n + 1 is 1 + 2 * stage n
    with pytest.raises(BudgetExceeded) as info:
        mu_initial_algebra(lists_over(2), nat_backend(), budget=5)
    assert sizes_of(info.value.profile) == [0, 1, 3, 7, 15]


def test_lists_over_empty_set():
    result = mu_initial_algebra(lists_over(0), nat_backend())
    assert result.carrier.size == 1
    assert nested_chain(MuParam(LISTS_BODY), 0) == (lists_over(0), (0, 1, 1))


def test_lists_over_point_grow_one_per_stage():
    with pytest.raises(BudgetExceeded) as info:
        mu_initial_algebra(lists_over(1), nat_backend(), budget=6)
    assert sizes_of(info.value.profile) == [0, 1, 2, 3, 4, 5]


def test_mu_parameterized_map_is_functorial():
    node = MuParam(Projection(0))
    for f in [
        FiniteFn(FiniteSet(2), FiniteSet(3), (2, 0)),
        FiniteFn(FiniteSet(3), FiniteSet(1), (0, 0, 0)),
    ]:
        mor = mu_parameterized_map(node, f)
        assert mor.dom.size == f.dom.size
        assert mor.cod.size == f.cod.size
    ident = mu_parameterized_map(node, FiniteFn.identity(FiniteSet(3)))
    assert ident.is_bijection()


def mu_outcome(run, functor, backend, **limits):
    """What an initial chain run reports: its result, or how it stopped."""
    try:
        result = run(functor, backend, **limits)
    except BudgetExceeded as stop:
        return type(stop), str(stop), stop.profile
    return result.stationary_at, result.profile, result.carrier, result.structure


MU_CASES = [(e, {}) for e in BATTERY] + [
    (Constant(FiniteSet(0)), {}),
    (Product((Constant(FiniteSet(0)), Identity())), {}),
    *((Constant(FiniteSet(k)), {}) for k in range(1, 5)),
    (Product((Identity(), Identity())), {}),
    (SUCC, {"budget": 5}),
    (POLY, {"budget": 5}),
    (POLY, {}),
    (PAIRS_UP_TO_SWAP, {}),
    # mu Y. 2 + 0*Y: the inner chain is stationary at size 2 for every X
    (
        MuParam(
            Sum((Constant(FiniteSet(2)), Product((Projection(1), Constant(FiniteSet(0))))))
        ),
        {},
    ),
    # 1 + X * (mu Y. X + Y*0): a fixpoint that is X itself, grown to the budget
    (FOLD_FUNCTORS[-1], {"budget": 5}),
    # 3 * (mu Y. 1 + X*0*Y), lists over the empty set: the chain maps go
    # through the fixpoint's fold at every step
    (
        Product(
            (
                Constant(FiniteSet(3)),
                MuParam(
                    Sum(
                        (
                            Constant(FiniteSet(1)),
                            Product((Projection(0), Constant(FiniteSet(0)), Projection(1))),
                        )
                    )
                ),
            )
        ),
        {},
    ),
    (Sum((Constant(FiniteSet(1)), Compose(SymContainer(2), (Constant(FiniteSet(2)),)))), {}),
    (Sum((Constant(FiniteSet(1)), Power(Identity(), 2))), {"budget": 5}),
]


def mu_nodes(e):
    """Every MuParam node in the expression, outermost first."""
    if isinstance(e, MuParam):
        yield e
    for field in e._fields():
        for child in field if isinstance(field, tuple) else (field,):
            if isinstance(child, FunctorExpr):
                yield from mu_nodes(child)


def nested_outcome(run):
    try:
        return run()
    except BudgetExceeded as stop:
        return type(stop), str(stop), stop.profile


# the nested fixpoints of the batteries, lists over 0..4 letters, which
# stop at the budget or the cap from one letter on, and mu Y. 1 + Y, which
# stops at the budget over every X
NESTED_MU = [
    MuParam(LISTS_BODY),
    MuParam(Sum((Constant(FiniteSet(1)), Projection(1)))),
] + list(
    dict.fromkeys(
        node
        for e in FUSED + FOLD_FUNCTORS + [e for e, _ in MU_CASES]
        for node in mu_nodes(e)
    )
)


@pytest.mark.parametrize("node", NESTED_MU, ids=[f"nested-{k}" for k in range(len(NESTED_MU))])
def test_a_nested_mu_is_sized_as_its_table_built_chain(node):
    for n in range(5):
        x = FiniteSet(n)
        fixed = Compose(node.body, (Constant(x), Identity()))

        def by_sizes():
            carrier = eval_functor(node, (x,))
            return carrier, len(nested_chain(node, n)[1]) - 1

        def by_tables():
            mu = mu_initial_algebra(fixed, nat_backend(), NESTED_BUDGET)
            return mu.carrier, mu.stationary_at

        assert nested_outcome(by_sizes) == nested_outcome(by_tables)


@pytest.mark.parametrize("size", ["nat", "plump"])
@pytest.mark.parametrize(
    "functor, limits", MU_CASES, ids=[f"mu-{k}" for k in range(len(MU_CASES))]
)
def test_mu_by_sizes_agrees_with_the_colimit_chain(functor, limits, size):
    backend = (
        nat_backend() if size == "nat" else kappa_sigma(Signature.of())
    )
    assert mu_outcome(mu_initial_algebra, functor, backend, **limits) == mu_outcome(
        reference_mu, functor, backend, **limits
    )


def test_a_stopped_initial_chain_builds_no_map(monkeypatch):
    def no_map(*args, **kwargs):
        raise AssertionError("a stopped initial chain built a chain map")

    monkeypatch.setattr("muiter.iteration.eval_functor_mor", no_map)
    with pytest.raises(BudgetExceeded) as info:
        mu_initial_algebra(POLY, nat_backend())
    assert str(info.value) == "carrier of size 210066388901 exceeds the cap 500000"
    assert sizes_of(info.value.profile) == [0, 1, 2, 5, 26, 677, 458330]
    with pytest.raises(BudgetExceeded, match="^stage budget 5 exhausted$"):
        mu_initial_algebra(POLY, nat_backend(), budget=5)


def test_a_stationary_chain_map_that_is_not_a_bijection_is_a_defect(monkeypatch):
    # the sizes 0, 3, 3 repeat, so the chain map from stage 1 to stage 2
    # must be a bijection; a functor map that does not keep injections
    # shows there
    def merging(functor, fns, then=None):
        return FiniteFn.constant(FiniteSet(3), FiniteSet(3), 0)

    monkeypatch.setattr("muiter.iteration.eval_functor_mor", merging)
    with pytest.raises(IntegrityError, match="^chain map at stage 2 is not a bijection$"):
        mu_initial_algebra(Constant(FiniteSet(3)), nat_backend())


# -- the dual chain ------------------------------------------------------------------


def test_nu_of_doubling_reports_powers_until_budget():
    with pytest.raises(BudgetExceeded) as info:
        deflationary_nu(Product((Constant(FiniteSet(2)), Identity())), budget=4)
    assert sizes_of(info.value.profile) == [1, 2, 4, 8]


def test_nu_of_constant_is_that_set():
    result = deflationary_nu(Constant(FiniteSet(3)))
    assert result.carrier.size == 3
    assert result.stationary_at == 2
    assert result.comparison.is_bijection()


def test_nu_of_identity_is_a_point():
    result = deflationary_nu(Identity())
    assert result.carrier.size == 1
    assert result.stationary_at == 1


def test_nu_of_squaring_is_a_point():
    result = deflationary_nu(Product((Identity(), Identity())))
    assert result.carrier.size == 1


def test_nu_profile_is_recorded():
    result = deflationary_nu(Constant(FiniteSet(3)))
    assert sizes_of(result.profile) == [1, 3, 3]


def nu_outcome(run, functor, **limits):
    """What a dual chain run reports: its result, or how it stopped."""
    try:
        result = run(functor, **limits)
    except BudgetExceeded as stop:
        return type(stop), str(stop), stop.profile
    return (
        result.stationary_at,
        result.carrier.size,
        result.profile,
        result.comparison,
    )


NU_CASES = [(e, {}) for e in BATTERY] + [
    (Constant(FiniteSet(0)), {}),
    (Product((Constant(FiniteSet(0)), Identity())), {}),
    *((Constant(FiniteSet(k)), {}) for k in range(1, 5)),
    (Identity(), {}),
    (Product((Identity(), Identity())), {}),
    (Product((Constant(FiniteSet(2)), Identity())), {"budget": 4}),
    (POLY, {"budget": 7}),
    # mu Y. 2 + 0*Y: the inner chain is stationary at size 2 for every X
    (
        MuParam(
            Sum((Constant(FiniteSet(2)), Product((Projection(1), Constant(FiniteSet(0))))))
        ),
        {},
    ),
    # mu Y. 1 + X: stationary at 1 + |X|, so the dual chain grows to the budget
    (MuParam(Sum((Constant(FiniteSet(1)), Projection(0)))), {"budget": 5}),
    (Sum((Constant(FiniteSet(1)), Power(Identity(), 2))), {"budget": 7}),
]


@pytest.mark.parametrize(
    "functor, limits", NU_CASES, ids=[f"nu-{k}" for k in range(len(NU_CASES))]
)
def test_nu_by_sizes_agrees_with_the_table_built_chain(functor, limits):
    assert nu_outcome(deflationary_nu, functor, **limits) == nu_outcome(
        reference_nu, functor, **limits
    )


def test_a_stopped_dual_chain_builds_no_map(monkeypatch):
    def no_map(*args):
        raise AssertionError("a stopped dual chain built a comparison map")

    monkeypatch.setattr("muiter.iteration.eval_functor_mor", no_map)
    with pytest.raises(BudgetExceeded) as info:
        deflationary_nu(POLY, budget=7)
    assert str(info.value) == "carrier of size 210066388901 exceeds the cap 500000"
    assert sizes_of(info.value.profile) == [1, 2, 5, 26, 677, 458330]


def test_a_stationary_comparison_that_is_not_a_bijection_is_a_defect(monkeypatch):
    # the sizes 1, 3, 3 repeat, so the comparison must be a bijection; a
    # functor map that breaks functoriality shows there
    def merging(functor, fns, then=None):
        return FiniteFn.constant(FiniteSet(3), FiniteSet(3), 0)

    monkeypatch.setattr("muiter.iteration.eval_functor_mor", merging)
    with pytest.raises(IntegrityError, match="comparison at stage 2 is not a bijection"):
        deflationary_nu(Constant(FiniteSet(3)))
