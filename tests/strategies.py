"""Hypothesis strategies over the script language, shared by property tests.

functor_text draws the text of a functor expression of the grammar in
muiter.dsl's docstring, nested at most depth levels, over every node kind a
script builds: numerals (constants), X (the identity), Y inside a nested
mu (the second projection), sums, products, powers, sym<swapk>, nested
mu, compose, parentheses and the container of a declared signature, the
one PRELUDE declares.  The text parses after PRELUDE as the right-hand
side of a functor declaration; parse_functor does that.  script_text
draws whole scripts: PRELUDE, then declarations of such expressions and
commands on them, some lines blank or ending in a comment.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

from muiter.dsl import FuncDecl, parse_script

PRELUDE = "sig Tree = leaf:0 | node:2\n"


@lru_cache(maxsize=None)
def functor_text(depth: int = 5, in_mu: bool = False) -> st.SearchStrategy:
    """Text of an expression at most depth levels deep; in_mu lets it read
    Y, the fixpoint of the nested mu around it."""
    leaf = st.sampled_from(("X", "0", "1", "2", "3", "Tree") + (("Y",) if in_mu else ()))
    if depth == 0:
        return leaf
    part = functor_text(depth - 1, in_mu)
    parts = st.lists(part, min_size=2, max_size=3)
    return st.one_of(
        leaf,
        parts.map(" + ".join),
        parts.map(lambda ps: " * ".join(f"({p})" for p in ps)),
        st.builds("({})^{}".format, part, st.integers(0, 3)),
        st.builds("sym<swap{}> ({})".format, st.sampled_from((2, 3)), part),
        functor_text(depth - 1, True).map("(mu Y. {})".format),
        # the outer functor of a compose takes the one argument given it
        st.builds("compose({}, {})".format, functor_text(depth - 1), part),
    )


@st.composite
def script_text(draw, lines: int = 4) -> str:
    """A script of up to lines declarations, each followed by a command on it."""
    out = [PRELUDE.rstrip("\n")]
    for k in range(draw(st.integers(1, lines))):
        out.append(f"F{k} = {draw(functor_text(3))}")
        out.append(draw(st.sampled_from((
            f"iterate F{k} depth 2", f"mu F{k} size plump budget 9", f"nu F{k}", "",
        ))))
        if draw(st.booleans()):
            out[-1] += "  # " + draw(st.text(st.characters(blacklist_characters="\n"), max_size=8))
    return "\n".join(out) + draw(st.sampled_from(("\n", "", "\n\n")))


def parse_functor(text: str):
    """The expression text declares after PRELUDE."""
    *_, decl = parse_script(f"{PRELUDE}F = {text}\n")
    assert isinstance(decl, FuncDecl)
    return decl.expr
