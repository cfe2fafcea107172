"""The benchmark's workloads: generated script text plus expected results.

Each workload is a fixed list of scripts, one command each.  The seed
changes only what leaves the amount of work fixed: declared names and
labels, algebra tables, `check` seeds and the order the scripts run in.
"""

from __future__ import annotations

import random
import string
from typing import List

import oracles

# names the script language reserves; generated names must avoid them
RESERVED = {"free", "cata", "size", "seed"}

BUDGET_ERROR = "budget-exceeded"


class _Names:
    """Fresh names of fixed length, so output size does not depend on the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def _fresh(self, first: str) -> str:
        while True:
            name = self.rng.choice(first) + "".join(
                self.rng.choice(string.ascii_lowercase) for _ in range(3)
            )
            if name not in self.used and name not in RESERVED:
                self.used.add(name)
                return name

    def functor(self) -> str:
        return self._fresh(string.ascii_uppercase)

    def label(self) -> str:
        return self._fresh(string.ascii_lowercase)


def _script(label: str, lines: List[str], expect: dict) -> dict:
    return {"label": label, "text": "\n".join(lines) + "\n", "expect": expect}


def _iterate_expect(step, depth: int) -> dict:
    """`iterate ... depth n` exits 0 with n stages, or 2 where the cap stops it."""
    sizes = oracles.chain_sizes(step, depth)
    if len(sizes) == depth:
        return {"exit": 0, "command": "iterate", "sizes": sizes}
    return {"exit": 2, "command": "iterate", "error": BUDGET_ERROR, "sizes": sizes}


def tower(rng: random.Random) -> List[dict]:
    """Deep iterations ending in a 458,330-element stage of one-object colimits."""
    expect = _iterate_expect(oracles.tree_step, 7)
    out = []
    for size in ("nat", "plump"):
        n = _Names(rng)
        s, t = n.functor(), n.functor()
        out.append(_script(f"tree-{size}", [
            f"sig {s} = {n.label()}:0 | {n.label()}:2",
            f"{t} = {s}",
            f"iterate {t} size {size} depth 7",
        ], expect))
        f = n.functor()
        out.append(_script(f"poly-{size}", [
            f"{f} = 1 + X*X",
            f"iterate {f} size {size} depth 7",
        ], expect))
    return out


def fold(rng: random.Random) -> List[dict]:
    """Folds of a 458,330-element stage into small algebras, and the dual chain."""
    stage = 6
    out = []
    for k in (2, 3):
        for size in ("nat", "plump"):
            n = _Names(rng)
            f, a = n.functor(), n.functor()
            table = [rng.randrange(k) for _ in range(1 + k * k)]
            out.append(_script(f"cata{k}-{size}", [
                f"{f} = 1 + X*X",
                f"alg {a} : {f} {k} = " + " ".join(map(str, table)),
                f"cata {f} {a} stage {stage} size {size}",
            ], {
                "exit": 0,
                "command": "cata",
                "sizes": oracles.chain_sizes(oracles.tree_step, stage + 1),
                "fold_counts": oracles.fold_counts(table, k, stage),
            }))
    f = _Names(rng).functor()
    out.append(_script("nu", [f"{f} = 1 + X*X", f"nu {f} budget 7"], {
        "exit": 2,
        "command": "nu",
        "error": BUDGET_ERROR,
        "sizes": oracles.chain_sizes(oracles.tree_step, 7, start=1),
    }))
    return out


def chain(rng: random.Random) -> List[dict]:
    """Long chains of small stages: index order and iteration bookkeeping."""
    out = []
    for size, budget in (("plump", 12), ("plump", 13), ("plump", 14), ("nat", 1000)):
        f = _Names(rng).functor()
        out.append(_script(f"succ-{size}-{budget}", [
            f"{f} = 1 + X",
            f"mu {f} size {size} budget {budget}",
        ], {
            "exit": 2,
            "command": "mu",
            "error": BUDGET_ERROR,
            "sizes": oracles.chain_sizes(oracles.succ_step, budget),
        }))
    out.append(_script("check-plump", [
        f"check size plump samples 2000 depth 5 seed {rng.randrange(10**6)}",
    ], {"exit": 0, "command": "check", "checks_ok": True}))
    return out


def quotient(rng: random.Random) -> List[dict]:
    """Quotient containers, the carrier cap and a nested fixpoint."""
    n = _Names(rng)
    p, q, lst, g = n.functor(), n.functor(), n.functor(), n.functor()
    return [
        _script(
            "sym6",
            [f"{p} = 6 + sym<swap2> X", f"iterate {p} depth 5"],
            _iterate_expect(oracles.sym_step, 5),
        ),
        _script(
            "pair-sym-cap",
            [f"{q} = 1 + X * sym<swap2> X", f"iterate {q} depth 6"],
            _iterate_expect(oracles.pair_sym_step, 6),
        ),
        # today the error carries the inner chain's profile; that is due to
        # change once nested fixpoints honour the outer command's limits, so
        # only a prefix of the inner chain is required
        _script("nested-mu", [
            f"{lst} = mu Y. 1 + X*Y",
            f"{g} = compose({lst}, 2)",
            f"mu {g}",
        ], {
            "exit": 2,
            "command": "mu",
            "error": BUDGET_ERROR,
            "size_prefix": oracles.chain_sizes(oracles.list2_step, 64),
        }),
    ]


WORKLOADS = {"tower": tower, "fold": fold, "chain": chain, "quotient": quotient}


def build(name: str, seed: int) -> List[dict]:
    """The workload's scripts for this seed, in the order they run."""
    rng = random.Random(f"{name}:{seed}")
    scripts = WORKLOADS[name](rng)
    rng.shuffle(scripts)
    return scripts
