"""The shape of every size function and fixpoint chain a script can state.

On finite sets a functor's size function f(n) = |F(n)| is a polynomial
with non-negative coefficients, or finite at 0 and infinite from 1 on (a
nested mu with no finite fixpoint there).  So f is monotone, and on n >= 1
it is constant, strictly increasing or infinite; and a chain
s, f(s), f(f(s)), ... is stationary by stage 2 or never.  These tests check
both on random functors of every node kind.  A size is infinite when its
nested fixpoint stops at its stage budget; a stop at the carrier cap says
only that some size passed the cap, so it ends what is known of f.
"""

from hypothesis import given, seed, settings

from muiter.errors import BudgetExceeded
from muiter.functors import _size
from muiter.iteration import tower
from muiter.size import nat_backend
from strategies import functor_text, parse_functor

BUDGET, CAP = "budget", "cap"


def size_or_stop(e, n: int):
    """f(n), or BUDGET or CAP for the limit that stopped it."""
    try:
        return _size(e, (n,))
    except BudgetExceeded as stop:
        return BUDGET if str(stop).startswith("stage budget") else CAP


@seed(16)
@settings(max_examples=300, deadline=None, database=None)
@given(functor_text())
def test_a_size_function_is_monotone_and_constant_increasing_or_infinite(text):
    e = parse_functor(text)
    sizes = [size_or_stop(e, n) for n in range(9)]
    known = [s for s in sizes if type(s) is int]
    # a stop sits above every size, so once f stops it stays stopped
    assert sizes[: len(known)] == known
    assert known == sorted(known)
    on_one = known[1:]
    assert len(set(on_one)) <= 1 or all(a < b for a, b in zip(on_one, on_one[1:]))
    # a fixpoint with no finite stage at some n >= 1 has none at any n >= 1
    if BUDGET in sizes[1:]:
        assert len(known) <= 1


@seed(16)
@settings(max_examples=300, deadline=None, database=None)
@given(functor_text())
def test_a_chain_is_stationary_by_stage_2_or_stops(text):
    e = parse_functor(text)
    for first in range(4):
        try:
            profile = tower(e, nat_backend(), budget=60, first=first)
        except BudgetExceeded:  # at the budget or the cap
            continue
        assert len(profile) - 1 <= 2, (first, profile.sizes)
