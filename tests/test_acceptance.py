"""End-to-end acceptance sweep, one printed verdict per area.

Run with -s to see the verdict lines.  Every check recomputes its expected
values from scratch (numeric recurrences, canonical-form enumeration,
exhaustive search over small function spaces) instead of trusting the
library under test.
"""

import itertools
import random
import subprocess

from muiter.checks import preserves_chain_colimit
from muiter.colimit import Diagram, subdiagram_colimit
from muiter.errors import BudgetExceeded
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import (
    Constant,
    Container,
    Identity,
    Product,
    Sum,
    SymContainer,
    eval_functor,
)
from muiter.iteration import (
    AlgebraSpec,
    catamorphism,
    deflationary_nu,
    inflationary_iterate,
    mu_initial_algebra,
)
from muiter.signature import Signature
from muiter.size import height, kappa_sigma, nat_backend, successor_tower
from launch import muiter_child
from reference import fold_equation_holds
from test_size import PlumpRule

BIN = Signature.of(0, 2, labels=["leaf", "node"])
POLY = Sum((Constant(FiniteSet(1)), Product((Identity(), Identity()))))
PAIRS = Sum((Constant(FiniteSet(1)), SymContainer(2)))


def verdict(label, failures):
    print(f"[{'FAIL' if failures else 'PASS'}] {label}")
    assert not failures, f"{label}: first failures {failures[:3]}"


# 1 ---------------------------------------------------------------------------


def test_order_laws_on_ten_thousand_sampled_trees():
    backend, rule = kappa_sigma(BIN), PlumpRule()
    rng = random.Random(7)
    trees = backend.sample_indices(rng, 10_000, 4)
    failures = []
    for t in trees[:2000]:
        if not backend.leq(t, t):
            failures.append(("lax not reflexive", backend.render(t)))
    for _ in range(10_000):
        a, b, c = (rng.choice(trees) for _ in range(3))
        got = (backend.lt(a, b), backend.leq(a, b))
        if got != (rule.lt(a, b), rule.leq(a, b)):
            failures.append(("order disagrees with the plump rule", a, b))
        if got != (height(a) < height(b), height(a) <= height(b)):
            failures.append(("order disagrees with height", a, b))
        j = backend.join(a, b)
        if not (backend.lt(a, j) and backend.lt(b, j)):
            failures.append(("join not an upper bound", a, b))
        if backend.lt(a, b) and backend.lt(b, c) and not backend.lt(a, c):
            failures.append(("strict not transitive", a, b, c))
        if backend.leq(a, b) and backend.leq(b, c) and not backend.leq(a, c):
            failures.append(("lax not transitive", a, b, c))
        if backend.lt(a, b) and backend.leq(b, c) and not backend.lt(a, c):
            failures.append(("lt;leq not strict", a, b, c))
        if backend.leq(a, b) and backend.lt(b, c) and not backend.lt(a, c):
            failures.append(("leq;lt not strict", a, b, c))
        if backend.lt(b, a) and not height(b) < height(a):
            failures.append(("strict without rank decrease", a, b))
    verdict("order laws on 10000 sampled index trees of height <= 4", failures)


# 2 ---------------------------------------------------------------------------


def reference_classes(diagram):
    """Independent colimit: union-find over the tagged sum of all objects."""
    elements = [(i, v) for i in diagram.indices for v in range(diagram.objects[i].size)]
    parent = {e: e for e in elements}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for (a, b), fn in diagram.arrows.items():
        for v in range(diagram.objects[a].size):
            ra, rb = find((a, v)), find((b, fn.table[v]))
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for e in elements:
        groups.setdefault(find(e), set()).add(e)
    return frozenset(frozenset(g) for g in groups.values())


def engine_classes(diagram):
    cocone = subdiagram_colimit(diagram)
    groups = {}
    for i in diagram.indices:
        leg = cocone.legs[i]
        for v in range(diagram.objects[i].size):
            groups.setdefault(leg.table[v], set()).add((i, v))
    assert len(groups) == cocone.apex.size
    return frozenset(frozenset(g) for g in groups.values())


def all_tables(a, b):
    return itertools.product(range(b), repeat=a)


def chain2_diagrams(limit):
    for a, b in itertools.product(range(limit + 1), repeat=2):
        for t in all_tables(a, b):
            x, y = FiniteSet(a), FiniteSet(b)
            yield Diagram({0: x, 1: y}, {(0, 1): FiniteFn(x, y, t)})


def three_index_diagrams(limit):
    for a, b, c in itertools.product(range(limit + 1), repeat=3):
        x, y, z = FiniteSet(a), FiniteSet(b), FiniteSet(c)
        for t1 in all_tables(a, b):
            f = FiniteFn(x, y, t1)
            for t2 in all_tables(b, c):
                g = FiniteFn(y, z, t2)
                yield Diagram(
                    {0: x, 1: y, 2: z},
                    {(0, 1): f, (1, 2): g, (0, 2): f.then(g)},
                )
        for t1 in all_tables(a, c):
            for t2 in all_tables(b, c):
                yield Diagram(
                    {0: x, 1: y, 2: z},
                    {(0, 2): FiniteFn(x, z, t1), (1, 2): FiniteFn(y, z, t2)},
                )


def test_colimits_match_the_union_find_oracle():
    failures = []
    count = 0
    for diagram in chain2_diagrams(4):
        count += 1
        if engine_classes(diagram) != reference_classes(diagram):
            failures.append(("chain2", diagram.objects))
    for diagram in three_index_diagrams(3):
        count += 1
        if engine_classes(diagram) != reference_classes(diagram):
            failures.append(("three-index", diagram.objects))
    rng = random.Random(11)
    sampled = 0
    while sampled < 500:
        b = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = rng.randint(0, 4)
        x, y, z = FiniteSet(a), FiniteSet(b), FiniteSet(c)
        f = FiniteFn(x, y, tuple(rng.randrange(b) for _ in range(a)))
        g = FiniteFn(y, z, tuple(rng.randrange(c) for _ in range(b)))
        diagram = Diagram(
            {0: x, 1: y, 2: z},
            {(0, 1): f, (1, 2): g, (0, 2): f.then(g)},
        )
        sampled += 1
        count += 1
        if engine_classes(diagram) != reference_classes(diagram):
            failures.append(("sampled", diagram.objects))
    verdict(f"colimit engine equals quotient oracle on {count} diagrams", failures)


# 3 ---------------------------------------------------------------------------


def enumerate_binary_trees(depth):
    levels = [set()]
    for _ in range(depth):
        prev = levels[-1]
        nxt = {"leaf"} | {("node", l, r) for l in prev for r in prev}
        levels.append(nxt)
    return [len(level) for level in levels]


def enumerate_unordered_pair_trees(depth):
    levels = [set()]
    for _ in range(depth):
        prev = sorted(levels[-1], key=repr)
        nxt = {"leaf"}
        for i, l in enumerate(prev):
            for r in prev[i:]:
                nxt.add(("pair", l, r))
        levels.append(nxt)
    return [len(level) for level in levels]


def test_stage_sizes_match_independent_recurrences():
    cases = [
        (POLY, lambda s: 1 + s * s),
        (Sum((Constant(FiniteSet(1)), Identity())), lambda s: 1 + s),
        (Constant(FiniteSet(3)), lambda s: 3),
        (Sum((Identity(), Identity())), lambda s: 2 * s),
        (PAIRS, lambda s: 1 + s * (s + 1) // 2),
    ]
    failures = []
    backend = nat_backend()
    for expr, step in cases:
        state = inflationary_iterate(expr, backend, successor_tower(backend, 5))
        got = [entry["size"] for entry in state.profile()]
        want = [0]
        for _ in range(4):
            want.append(step(want[-1]))
        if got != want:
            failures.append((type(expr).__name__, got, want))
    poly_state = inflationary_iterate(POLY, backend, successor_tower(backend, 5))
    poly_sizes = [entry["size"] for entry in poly_state.profile()]
    if poly_sizes != enumerate_binary_trees(4):
        failures.append(("binary tree enumeration", poly_sizes))
    if poly_sizes != [0, 1, 2, 5, 26]:
        failures.append(("binary tree literal", poly_sizes))
    pair_state = inflationary_iterate(PAIRS, backend, successor_tower(backend, 5))
    pair_sizes = [entry["size"] for entry in pair_state.profile()]
    if pair_sizes != enumerate_unordered_pair_trees(4):
        failures.append(("unordered pair enumeration", pair_sizes))
    if pair_sizes != [0, 1, 2, 4, 11]:
        failures.append(("unordered pair literal", pair_sizes))
    verdict("stage sizes match brute-force enumeration on five functors", failures)


# 4 ---------------------------------------------------------------------------


def test_stationary_stages_carry_the_fixpoint():
    failures = []
    for k in range(1, 5):
        result = mu_initial_algebra(Constant(FiniteSet(k)), nat_backend())
        round_trip = result.structure.then(result.structure.inverse())
        if (
            result.carrier.size != k
            or result.stationary_at != 2
            or not result.structure.is_bijection()
            or round_trip != FiniteFn.identity(result.structure.dom)
        ):
            failures.append(("constant", k, result.stationary_at))
    ident = mu_initial_algebra(Identity(), nat_backend())
    if ident.carrier.size != 0 or ident.stationary_at != 1:
        failures.append(("identity", ident.carrier.size, ident.stationary_at))
    verdict("stationary stages present the fixpoint with invertible structure", failures)


# 5 ---------------------------------------------------------------------------


def test_folds_are_unique_by_exhaustive_search():
    failures = []
    cases = 0
    exprs = [
        Sum((Constant(FiniteSet(1)), Identity())),
        Constant(FiniteSet(2)),
        Identity(),
    ]
    backend = nat_backend()
    for expr in exprs:
        state = inflationary_iterate(expr, backend, successor_tower(backend, 4))
        for a in range(3):
            carrier = FiniteSet(a)
            fa = eval_functor(expr, (carrier,))
            for table in itertools.product(range(a), repeat=fa.size):
                alg = AlgebraSpec(carrier, FiniteFn(fa, carrier, table))
                for i in range(4):
                    d = state.stage(i).apex
                    if d.size > 3:
                        continue
                    cases += 1
                    sols = []
                    for h_table in itertools.product(range(a), repeat=d.size):
                        h = FiniteFn(d, carrier, h_table)
                        if all(
                            fold_equation_holds(state, alg, h, j, i)
                            for j in range(i)
                        ):
                            sols.append(h)
                    expected = catamorphism(state, alg, i)
                    if len(sols) != 1 or sols[0] != expected:
                        failures.append((type(expr).__name__, a, table, i, len(sols)))
    verdict(
        f"exactly one fold per algebra in {cases} exhaustive searches", failures
    )


# 6 ---------------------------------------------------------------------------


def inclusion_chain(sizes):
    objects = {k: FiniteSet(n) for k, n in enumerate(sizes)}
    arrows = {}
    for j in range(len(sizes)):
        for i in range(j + 1, len(sizes)):
            arrows[(j, i)] = FiniteFn(objects[j], objects[i], tuple(range(sizes[j])))
    return Diagram(objects, arrows)


def test_canonical_chain_comparison_is_bijective():
    failures = []
    count = 0
    for expr in (Identity(), Container(BIN)):
        for length in range(1, 5):
            for sizes in itertools.combinations_with_replacement(range(4), length):
                chain = inclusion_chain(list(sizes))
                count += 1
                if not preserves_chain_colimit(expr, chain):
                    failures.append((type(expr).__name__, sizes))
    verdict(
        f"canonical map is bijective on {count} inclusion chains", failures
    )


# 7 ---------------------------------------------------------------------------


def test_tree_indexed_stages_match_numeric_ranks():
    failures = []
    compared = 0
    rng = random.Random(3)
    for expr in (POLY, Container(BIN), Sum((Constant(FiniteSet(1)), Identity()))):
        nat_state = inflationary_iterate(
            expr, nat_backend(), successor_tower(nat_backend(), 4)
        )
        for sig in (Signature.of(), BIN):
            backend = kappa_sigma(sig)
            indices = list(successor_tower(backend, 4))
            bot = backend.bottom()
            one = backend.succ(bot)
            indices += [backend.join(bot, one), backend.join(one, bot)]
            indices += [t for t in backend.sample_indices(rng, 30, 3)]
            state = inflationary_iterate(expr, backend, [], budget=400)
            for i in indices:
                if height(i) > 3:
                    continue
                compared += 1
                got = state.stage(i).apex.size
                want = nat_state.stage(height(i)).apex.size
                if got != want:
                    failures.append((type(expr).__name__, backend.render(i), got, want))
    verdict(
        f"stage size depends only on index rank across {compared} indices", failures
    )


# 8 ---------------------------------------------------------------------------


def test_dual_chain_profiles():
    failures = []
    try:
        deflationary_nu(Product((Constant(FiniteSet(2)), Identity())), budget=4)
        failures.append(("doubling should not stabilize",))
    except BudgetExceeded as e:
        sizes = [entry["size"] for entry in e.profile]
        if sizes != [1, 2, 4, 8]:
            failures.append(("doubling", sizes))
    for k in range(1, 5):
        result = deflationary_nu(Constant(FiniteSet(k)))
        if result.carrier.size != k or not result.comparison.is_bijection():
            failures.append(("constant", k, result.carrier.size))
    verdict("dual chain sizes 1,2,4,8 and constant fixpoints", failures)


# 9 ---------------------------------------------------------------------------


DEMO = """\
sig Tree = leaf:0 | node:2
F = 1 + X*X
G = 3
alg lparity : F 2 = 1 0 1 1 0
iterate F size plump depth 4
mu G size plump:Tree
free G 2
cata F lparity stage 4 budget 6
nu G
check size plump samples 20 depth 2 seed 5
"""


def run_once(path, seed):
    return subprocess.run(
        **muiter_child(path, PYTHONHASHSEED=seed), capture_output=True
    )


def test_repeated_runs_are_byte_identical(tmp_path):
    failures = []
    script = tmp_path / "demo.mi"
    script.write_text(DEMO)
    first = run_once(script, "1")
    second = run_once(script, "2")
    if first.returncode != 0 or second.returncode != 0:
        failures.append(("exit", first.returncode, second.returncode, first.stderr))
    if first.stdout != second.stdout:
        failures.append(("stdout differs",))
    over = tmp_path / "over.mi"
    over.write_text("F = 1 + X*X\nmu F budget 6\n")
    third = run_once(over, "3")
    fourth = run_once(over, "4")
    if third.returncode != 2 or third.stdout != fourth.stdout:
        failures.append(("budget run", third.returncode))
    verdict("repeated script runs emit byte-identical reports", failures)
