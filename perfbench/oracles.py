"""Expected results for the benchmark's scripts, computed without muiter.

Stage sizes come from each functor's size recurrence, fold results from a
dynamic programme over the algebra table, and exit codes from the CLI's
documented contract (0 success, 2 when a stage budget or the carrier cap
stops an iteration).  `verify` compares one script's JSON output with such
an expectation and lists every mismatch.
"""

from __future__ import annotations

import json
from typing import Callable, List

# the carrier cap the CLI applies to every iteration (documented default)
CARRIER_CAP = 500_000


def tree_step(s: int) -> int:
    """|1 + X*X| and |leaf:0 | node:2| applied to a set of size s."""
    return 1 + s * s


def succ_step(s: int) -> int:
    """|1 + X|."""
    return 1 + s


def sym_step(s: int) -> int:
    """|6 + sym<swap2> X|: unordered pairs number s(s+1)/2."""
    return 6 + s * (s + 1) // 2


def pair_sym_step(s: int) -> int:
    """|1 + X * sym<swap2> X|."""
    return 1 + s * (s * (s + 1) // 2)


def list2_step(s: int) -> int:
    """|1 + 2*Y|: the inner chain of lists over a two-element set."""
    return 1 + 2 * s


def chain_sizes(step: Callable[[int], int], length: int, start: int = 0) -> List[int]:
    """Sizes of the first `length` stages start, step(start), ...

    The list stops early before the first stage larger than the carrier
    cap, which is where the CLI stops with exit code 2.
    """
    sizes: List[int] = []
    s = start
    while len(sizes) < length and s <= CARRIER_CAP:
        sizes.append(s)
        s = step(s)
    return sizes


def fold_counts(table: List[int], k: int, stage: int) -> List[int]:
    """How many elements of stage `stage` of 1 + X*X fold to each value.

    `table` is an algebra F(k) -> k with F(k) laid out leaf first, then the
    pairs (a, b) at 1 + a + b*k.  Stage 0 is empty and stage n+1 is F of
    stage n, so the counts follow by dynamic programming over the stages.
    """
    if len(table) != 1 + k * k:
        raise ValueError(f"table of length {len(table)} for F({k})")
    counts = [0] * k
    for _ in range(stage):
        nxt = [0] * k
        nxt[table[0]] += 1
        for a in range(k):
            for b in range(k):
                nxt[table[1 + a + b * k]] += counts[a] * counts[b]
        counts = nxt
    return counts


def verify(output: str, code: int, expect: dict) -> List[str]:
    """Every way one script's exit code and JSON output miss `expect`.

    `expect` holds "exit" and "command", and optionally "error" (the error
    type the report must carry), "sizes" (the exact stage sizes),
    "size_prefix" (stage sizes must be a prefix of it), "fold_counts" and
    "checks_ok".
    """
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit code {code}, expected {expect['exit']}")
    try:
        reports = json.loads(output)["reports"]
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"output is not a JSON report: {e!r}"]
    if len(reports) != 1:
        return problems + [f"{len(reports)} reports, expected 1"]
    report = reports[0]
    if report.get("command") != expect["command"]:
        problems.append(f"command {report.get('command')!r}, expected {expect['command']!r}")
    error = report.get("error", {}).get("type")
    if error != expect.get("error"):
        problems.append(f"error type {error!r}, expected {expect.get('error')!r}")
    sizes = [stage["size"] for stage in report.get("stages", ())]
    if "sizes" in expect and sizes != expect["sizes"]:
        problems.append(f"stage sizes {sizes}, expected {expect['sizes']}")
    if "size_prefix" in expect and sizes != expect["size_prefix"][: len(sizes)]:
        problems.append(f"stage sizes {sizes} are not a prefix of {expect['size_prefix']}")
    if "fold_counts" in expect:
        fold = report.get("fold", {})
        want = expect["fold_counts"]
        got = [0] * len(want)
        for v in fold.get("table", ()):
            if not 0 <= v < len(want):
                problems.append(f"fold value {v} outside the carrier")
                break
            got[v] += 1
        if fold.get("size") != len(want) or got != want:
            problems.append(f"fold counts {got}, expected {want}")
    if expect.get("checks_ok"):
        checks = report.get("checks", ())
        failing = [c.get("name") for c in checks if not c.get("ok")]
        if not checks or failing:
            problems.append(f"checks not all ok: {failing or 'none ran'}")
    return problems
