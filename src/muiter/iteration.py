"""Inflationary iteration of finite-set functors up to their fixpoints.

Stages are indexed by a size backend.  The stage at index i is the colimit
of F applied to all strictly earlier stages; because a stage's own value
never appears on the right-hand side, the recursion needs no case split on
the form of the index.  The infinite down-set below i is represented by the
backend's finite predecessor basis: every strictly smaller index embeds
laxly into some basis member, so the colimit over the basis (with
connecting maps synthesized from the lax order) agrees with the full one.

On the successor tower each stage is F of the one before (Adamek's chain),
and tower() carries each stage as its size, by the integer size recursion
functors._size; mu and nu build one chain map where a size repeats, and a
fold there is a loop.  A tower's profile is its sizes (Profile): stage
k's index is the k-th successor of bottom, which the backend renders by
arithmetic (stage_index), so no index tree and no row is built per stage.
A mu nested in a functor is one more such chain, on numeric stages under
NESTED_BUDGET (nested_chain), and no stage of any chain passes
MAX_CARRIER.  IterationState is the general construction, and the tests'
oracle for the tower.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Tuple

from .errors import (
    BudgetExceeded,
    IntegrityError,
    NoAlgebra,
    ShapeMismatch,
)
from .finset import FiniteFn, FiniteSet
from .functors import (
    Compose,
    Constant,
    FrozenRecord,
    FunctorExpr,
    Identity,
    MuParam,
    Record,
    Sum,
    _size,
    eval_functor,
    eval_functor_mor,
    expr_arity,
)
from .size import nat_backend

DEFAULT_BUDGET = 8
# the largest stage any fixpoint builds or sizes, and the stage budget of a
# fixpoint nested in a functor; both are read at call time
MAX_CARRIER = 500_000
NESTED_BUDGET = 32
_LONG_SIZE = 10**1000  # the least size of more than 1,000 digits


class AlgebraSpec(FrozenRecord):
    """A carrier with a structure map F(carrier) -> carrier."""

    __slots__ = ("carrier", "structure")

    def __init__(self, carrier: FiniteSet, structure: FiniteFn):
        if structure.cod != carrier:
            raise NoAlgebra(
                f"structure map lands in a set of size "
                f"{structure.cod.size}, carrier has {carrier.size}"
            )
        super().__init__(carrier, structure)


def _unrepresented(cls: int) -> Exception:
    return IntegrityError("stage has a class with no layer representative")


def _over_cap(size: int, profile) -> BudgetExceeded:
    """The stop for a carrier over MAX_CARRIER; a size of more than 1,000
    digits is written by its bit length, as str() refuses an int past 4,300."""
    shown = f"at least 2**{size.bit_length() - 1}" if size >= _LONG_SIZE else size
    return BudgetExceeded(
        f"carrier of size {shown} exceeds the cap {MAX_CARRIER}", profile
    )


def _post_order(root, basis_of, done):
    """(index, basis) for root and every index below it through basis_of
    that done lacks, each after its basis, in basis order; an explicit
    stack stands in for the recursion, so a deep index is no deeper call.
    The maps between stages are resolved the same way, a map's basis being
    the maps it reads."""
    stack = [(root, None)]
    while stack:
        idx, basis = stack.pop()
        if idx in done:
            continue
        if basis is None:
            basis = basis_of(idx)
            stack.append((idx, basis))
            stack.extend((j, None) for j in reversed(basis))
        else:
            yield idx, basis


class IterationState:
    """Memoized stages of one functor over one size backend.

    stage(i) is the colimit cocone at index i: its apex is the stage, its
    diagram's indices are i's predecessor basis, and its legs inject the
    fresh layers F(stage b) for b in that basis.  The stages it needs are
    computed first, in post-order over the bases.  connect(j, i) is the
    canonical map between stages for laxly ordered indices, resolved in
    post-order too; leg(j, i), the injection of the fresh layer F(stage j)
    into stage i for strictly ordered ones, is derived from it.
    """

    def __init__(self, functor: FunctorExpr, backend, budget: int = DEFAULT_BUDGET):
        if expr_arity(functor) > 1:
            raise ShapeMismatch("iteration needs an endofunctor of one argument")
        self.functor = functor
        self.backend = backend
        self.budget = budget
        self.stages: Dict = {}
        self._connects: Dict = {}
        self._legs: Dict = {}

    # -- profile ---------------------------------------------------------

    def profile(self) -> list:
        """Stage sizes in computation order, for reports and errors."""
        return [
            {"index": self.backend.render(idx), "size": cocone.apex.size}
            for idx, cocone in self.stages.items()
        ]

    # -- stage computation ----------------------------------------------

    def stage(self, i):
        """The Cocone whose apex is the stage at i."""
        # the colimit engine loads here, on first use: the successor tower
        # the fixpoint commands run on never reaches it
        from .colimit import Diagram, subdiagram_colimit

        def basis_of(idx) -> tuple:
            return tuple(dict.fromkeys(self.backend.predecessor_basis(idx)))

        for idx, basis in _post_order(i, basis_of, self.stages):
            if len(self.stages) >= self.budget:
                raise BudgetExceeded(
                    f"stage budget {self.budget} exhausted", self.profile()
                )
            objects = {j: self._apply_object(self.stages[j].apex) for j in basis}
            arrows = {
                (a, b): eval_functor_mor(self.functor, (self.connect(a, b),))
                for a in basis
                for b in basis
                if a != b and self.backend.leq(a, b)
            }
            self.stages[idx] = subdiagram_colimit(Diagram(objects, arrows))
        return self.stages[i]

    def _apply_object(self, x: FiniteSet) -> FiniteSet:
        out = eval_functor(self.functor, (x,))
        if out.size > MAX_CARRIER:
            raise _over_cap(out.size, self.profile())
        return out

    # -- canonical maps between stages -----------------------------------

    def connect(self, j, i) -> FiniteFn:
        """Stage map for laxly ordered indices j and i: the map out of stage
        j that composes with each of its legs, at m, to leg(m, i).

        Each connect is built after the connects its legs read, in
        post-order with an explicit stack, so indices far apart are no
        deeper call.
        """
        if j == i:
            return FiniteFn.identity(self.stage(j).apex)
        for (m, n), _ in _post_order((j, i), self._reads, self._connects):
            src, dst = self.stages[m], self.stages[n]
            table = src.induce(
                lambda k: self.leg(k, n).table,
                lambda cls: IntegrityError(
                    f"stage map {self.backend.render(m)} -> "
                    f"{self.backend.render(n)} ill defined at class {cls}"
                ),
                _unrepresented,
            )
            self._connects[(m, n)] = FiniteFn(src.apex, dst.apex, table)
        return self._connects[(j, i)]

    def _reads(self, pair: tuple) -> tuple:
        """The connects the legs of connect(j, i) read: connect(m, b) for
        each m in j's basis outside i's, b the first of i's basis above m.
        The stages are computed in the order the maps read them: j, then i."""
        j, i = pair
        src, dst = self.stage(j), self.stage(i)
        return tuple(
            (m, self._bound(m, i)) for m in src.diagram.indices if m not in dst.legs
        )

    def _bound(self, j, i):
        """The first member of i's basis above j."""
        for b in self.stages[i].diagram.indices:
            if self.backend.leq(j, b):
                return b
        raise IntegrityError(
            f"predecessor basis of {self.backend.render(i)} has no bound "
            f"for {self.backend.render(j)}"
        )

    def leg(self, j, i) -> FiniteFn:
        """Fresh-layer injection F(stage j) -> stage i for j strictly below
        i: stage i's own leg at a member j of its basis, or else
        F(connect(j, b)) followed by b's leg, b the first of i's basis above j."""
        got = self._legs.get((j, i))
        if got is None:
            dst = self.stage(i)
            got = dst.legs.get(j)
            if got is None:
                b = self._bound(j, i)
                got = eval_functor_mor(
                    self.functor, (self.connect(j, b),), then=dst.legs[b]
                )
            self._legs[(j, i)] = got
        return got


def inflationary_iterate(
    functor: FunctorExpr,
    backend,
    targets: Sequence,
    budget: int = DEFAULT_BUDGET,
) -> IterationState:
    """Compute the stages at the target indices (and their recursive bases)."""
    state = IterationState(functor, backend, budget)
    for t in targets:
        state.stage(t)
    return state


class Profile(FrozenRecord, Sequence):
    """The sizes of a tower's stages, read as the rows {"index", "size"} of
    a report: stage k's index is backend.stage_index(k).  A row is built
    only when it is read, and a profile equals any sequence of its rows."""

    __slots__ = ("sizes", "backend")

    def __init__(self, sizes, backend):
        super().__init__(tuple(sizes), backend)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, k: int) -> dict:
        size = self.sizes[k]
        return {"index": self.backend.stage_index(k % len(self.sizes)), "size": size}

    def __iter__(self):
        stage_index = self.backend.stage_index
        for k, size in enumerate(self.sizes):
            yield {"index": stage_index(k), "size": size}

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def tower(
    functor: FunctorExpr,
    backend,
    budget: int = DEFAULT_BUDGET,
    length=None,
    first: int = 0,
) -> Profile:
    """The profile of the stages first, F(first), ...: length of them or,
    without one, up to the first repeated size.  A stage's size is the
    functor's size on the size before it (functors._size), so no stage is
    built.  The budget and then the cap are checked before each stage, and
    a stop carries the profile of the stages before it."""
    if expr_arity(functor) > 1:
        raise ShapeMismatch("iteration needs an endofunctor of one argument")
    sizes, size = [], first
    while len(sizes) != length:
        if len(sizes) >= budget:
            raise BudgetExceeded(
                f"stage budget {budget} exhausted", Profile(sizes, backend)
            )
        if sizes:
            size = _size(functor, (size,))
            if size > MAX_CARRIER:
                raise _over_cap(size, Profile(sizes, backend))
        sizes.append(size)
        if length is None and len(sizes) > 1 and sizes[-2] == size:
            break
    return Profile(sizes, backend)


def _iterate_map(functor: FunctorExpr, f: FiniteFn, times: int, then=None) -> FiniteFn:
    """F^times(f); with then, each step is F of the map so far followed by it."""
    for _ in range(times):
        f = eval_functor_mor(functor, (f,), then=then)
    return f


def _chain_map(functor: FunctorExpr, unique: FiniteFn, sizes: tuple, name: str):
    """F^(n-1)(unique) for stages 0..n whose last size repeats, checked bijective."""
    out = _iterate_map(functor, unique, len(sizes) - 2)
    if not out.is_bijection():
        raise IntegrityError(f"{name} at stage {len(sizes) - 1} is not a bijection")
    return out


class MuResult(Record):
    """A stationary stage presented as an algebra, with the chain's profile."""

    __slots__ = ("algebra", "stationary_at", "profile")

    @property
    def carrier(self) -> FiniteSet:
        return self.algebra.carrier

    @property
    def structure(self) -> FiniteFn:
        return self.algebra.structure


def mu_initial_algebra(
    functor: FunctorExpr, backend, budget: int = DEFAULT_BUDGET
) -> MuResult:
    """Iterate along the successor tower until the chain goes stationary.

    Stage k maps into stage k+1 by c_k = F^k(0 -> F0).  The functors a
    script builds keep injections, so c_k is a bijection exactly when the
    sizes agree.  Only at the first repeated size is that map built, and
    checked; its inverse is the structure map.  A stop builds no table.
    """
    profile = tower(functor, backend, budget)
    return MuResult(
        _initial_algebra(functor, profile.sizes), len(profile) - 1, profile
    )


def _initial_algebra(functor: FunctorExpr, sizes: tuple) -> AlgebraSpec:
    """The stationary stage of a sized initial chain, whose last size
    repeats, with the inverse of its chain map as the structure map."""
    empty = FiniteFn(FiniteSet(0), FiniteSet(sizes[1]), ())
    c = _chain_map(functor, empty, sizes, "chain map")
    return AlgebraSpec(FiniteSet(sizes[-2]), c.inverse())


def _check_algebra(functor: FunctorExpr, alg: AlgebraSpec) -> None:
    fa = eval_functor(functor, (alg.carrier,))
    if alg.structure.dom != fa:
        raise NoAlgebra(
            f"structure map domain has size {alg.structure.dom.size}, "
            f"functor applied to the carrier has {fa.size}"
        )


def catamorphism(state: IterationState, alg: AlgebraSpec, i) -> FiniteFn:
    """The unique stage-indexed fold into the algebra.

    Built in the same post-order over the bases as the stages: a class
    coming from the layer F(stage j) folds by first folding at j inside F,
    then applying the structure map, and the two are built as one table.
    """
    _check_algebra(state.functor, alg)
    state.stage(i)
    done: Dict = {}

    def layer(j) -> Sequence[int]:
        return eval_functor_mor(state.functor, (done[j],), then=alg.structure).table

    for idx, _ in _post_order(i, lambda idx: state.stages[idx].diagram.indices, done):
        cocone = state.stages[idx]
        table = cocone.induce(
            layer,
            lambda cls: IntegrityError(
                f"fold at {state.backend.render(idx)} ill defined at class {cls}"
            ),
            _unrepresented,
        )
        # induce gives one value per class, each a value of the checked
        # structure table: a table laid end to end from the layers, or a
        # list where classes were identified, which the constructor turns
        # into a table
        done[idx] = FiniteFn(cocone.apex, alg.carrier, table)
    return done[i]


def tower_fold(functor: FunctorExpr, alg: AlgebraSpec, k: int) -> FiniteFn:
    """The fold of tower stage k into the algebra, in a loop: fold_0 is the
    empty map, and fold_(j+1) is F(fold_j) followed by the structure map."""
    _check_algebra(functor, alg)
    empty = FiniteFn(FiniteSet(0), alg.carrier, ())
    return _iterate_map(functor, empty, k, then=alg.structure)


class FreeResult(Record):
    """Free algebra on a set of generators."""

    __slots__ = ("mu", "generators", "unit", "structure")


def free_algebra(
    functor: FunctorExpr,
    generators: FiniteSet,
    backend,
    budget: int = DEFAULT_BUDGET,
) -> FreeResult:
    """Initial algebra of F(-) + generators.

    The unit embeds a generator as the right summand under the structure
    map; the left summand is the F-algebra structure on the free carrier.
    The sum is laid out block by block, so the two are the slices of the
    structure map's table after and before |F(carrier)|.
    """
    expr = Sum((functor, Constant(generators)))
    mu = mu_initial_algebra(expr, backend, budget)
    f_mu = eval_functor(functor, (mu.carrier,))
    iota = mu.structure.table
    unit = FiniteFn(generators, mu.carrier, iota[f_mu.size :])
    structure = FiniteFn(f_mu, mu.carrier, iota[: f_mu.size])
    return FreeResult(mu, generators, unit, structure)


def nested_chain(node: MuParam, x: int) -> Tuple[FunctorExpr, tuple]:
    """The fixpoint a nested mu Y. body(X, Y) names at |X| = x: the
    endofunctor body(X, -) and the sizes of its chain on numeric stages,
    up to the first repeated size, under NESTED_BUDGET and the cap.  The
    object part (functors._size) reads the last size, the morphism part
    (mu_parameterized_map) the functor and the stationary stage."""
    fixed = Compose(node.body, (Constant(FiniteSet(x)), Identity()))
    return fixed, tower(fixed, nat_backend(), NESTED_BUDGET).sizes


def mu_parameterized_map(node: MuParam, f: FiniteFn) -> FiniteFn:
    """Morphism part: the mediating fold from the domain's fixpoint into
    the codomain's, taken at the domain's stationary stage; nested_chain
    gives each side's chain."""
    fixed, sizes = nested_chain(node, f.dom.size)
    mu_y = _initial_algebra(*nested_chain(node, f.cod.size))
    step = eval_functor_mor(
        node.body, (f, FiniteFn.identity(mu_y.carrier)), then=mu_y.structure
    )
    return tower_fold(fixed, AlgebraSpec(mu_y.carrier, step), len(sizes) - 2)


class NuResult(Record):
    """A stationary stage of the dual chain."""

    __slots__ = ("carrier", "comparison", "stationary_at", "profile")


def deflationary_nu(functor: FunctorExpr, budget: int = DEFAULT_BUDGET) -> NuResult:
    """Dual chain on numeric stages: start at a point, repeatedly apply F.

    Stage n+1 maps to stage n by the comparison c_n = F^n(!), where ! is
    the unique map from stage 1 to the point.  Every c_n is onto: when
    stage 1 is not empty, ! splits and functors keep split epis; when it
    is empty, so is F of the empty set, which maps into it.  So c_n is a
    bijection exactly when stage n+1 has the size of stage n, and the
    chain is sized by tower() alone, under the budget and the cap.
    Only a stationary chain builds its comparison, and checks that it is
    a bijection; a budget or cap stop builds no table.
    """
    profile = tower(functor, nat_backend(), budget, first=1)
    sizes = profile.sizes
    unique = FiniteFn.constant(FiniteSet(sizes[1]), FiniteSet(1), 0)
    comparison = _chain_map(functor, unique, sizes, "dual chain comparison")
    return NuResult(FiniteSet(sizes[-2]), comparison, len(sizes) - 1, profile)
