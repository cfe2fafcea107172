"""Run tier-1 against a fixed list of small faults and print which it catches.

Usage: python tests/mutants.py [NAME ...]

Each mutant is one edit: (name, file under the checkout, old text, new
text, reason).  The old text must occur exactly once in its file.  The
checkout's src, tests and perfbench are copied to a temporary directory
once; each mutant is written into the copy, tier-1 runs there with -x, and
the file is put back.  A mutant is KILLED when tier-1 fails and SURVIVED
when it passes; the first failing test is named.  A mutant with a reason is
equivalent: it changes only speed or memory, so it is expected to survive,
and the reason is printed with it.  A mutant whose old text is not once in
its file is STALE and is not run.  Names given on the command line run
only those mutants.  The whole list takes several minutes: every survivor
runs all of tier-1.

The exit code is 1 when a mutant is STALE or a mutant without a reason
SURVIVES, or when a name given is not on the list, and 0 otherwise.

A new check line, fast path or invariant adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

CHECKS, SIZE, CLI = "src/muiter/checks.py", "src/muiter/size.py", "src/muiter/cli.py"
FINSET, FUNCTORS = "src/muiter/finset.py", "src/muiter/functors.py"
COLIMIT, ITERATION = "src/muiter/colimit.py", "src/muiter/iteration.py"
SIGNATURE = "src/muiter/signature.py"

MUTANTS = [
    # each law line of check, its failure condition never true
    ("order-strict-reflexive", CHECKS, "if lt(i, i):", "if False:", None),
    ("order-lax-irreflexive", CHECKS, "if not leq(i, i):", "if False:", None),
    ("order-strict-without-lax", CHECKS,
     "if lt_ab and not leq_ab:", "if False:", None),
    ("order-lt-leq", CHECKS,
     "if lt_ab and leq_bc and not lt_ac:", "if False:", None),
    ("order-leq-lt", CHECKS,
     "if leq_ab and lt_bc and not lt_ac:", "if False:", None),
    ("order-lax-transitive", CHECKS,
     "if leq_ab and leq_bc and not leq_ac:", "if False:", None),
    ("order-strict-rank", CHECKS,
     "if lt_ab != (height_a < height_b):", "if False:", None),
    ("order-lax-rank", CHECKS,
     "if leq_ab != (height_a <= height_b):", "if False:", None),
    ("order-bottom-above", CHECKS, "if not leq(bottom, i):", "if False:", None),
    ("order-successor-above", CHECKS,
     "if not lt(i, backend.succ(i)):", "if False:", None),
    ("join-upper-bound", CHECKS,
     "if not (leq(a, j) and leq(b, j)):", "if False:", None),
    ("basis-member-below", CHECKS, "if not backend.lt(b, i):", "if False:", None),
    ("filtered-strict-bound", SIZE,
     "if not backend.lt(member, witness):", "if False:", None),
    ("cocone-leg-mismatch", CHECKS,
     "if f.then(cocone.legs[b]) != cocone.legs[a]:", "if False:", None),
    ("cocone-jointly-surjective", CHECKS,
     "if covered != set(range(cocone.apex.size)):", "if False:", None),
    ("functor-identity", CHECKS,
     "if ident != FiniteFn.identity(ident.dom):", "if False:", None),
    ("functor-composition", CHECKS, "if lhs != rhs:", "if False:", None),
    ("cata-carrier-entry", CLI,
     "if v >= decl.carrier:", "if v > decl.carrier:", None),
    ("nu-size-check", CLI,
     'if size not in (None, "nat"):', 'if size not in (None, "nat", "plump"):', None),
    ("chain-comparison-bijection", CHECKS, "if not preserved:", "if False:", None),
    ("chain-suite-lets-a-non-diagram-through", CHECKS,
     "except (IllTypedArrow, NonFunctorialDiagram) as e:", "except () as e:", None),
    ("chain-suite-lets-an-ill-defined-map-through", CHECKS,
     "except IntegrityError as e:", "except () as e:", None),
    ("script-decoded-strictly", CLI,
     'text = data.decode("utf-8", "surrogateescape")',
     'text = data.decode("utf-8")', None),
    ("script-keeps-a-lone-cr", CLI,
     '.replace("\\r", "\\n")', "", None),
    # fast paths and invariants
    ("then-table-identity-shortcut", FINSET,
     "if isinstance(post, range) and post.start == 0 and post.step == 1:",
     "if isinstance(post, range) and post.start >= 0 and post.step == 1:", None),
    ("product-rows-range-shortcut", FINSET,
     "isinstance(f.table, range) and f.table == range(f.cod.size)",
     "isinstance(f.table, range)", None),
    ("finite-fn-bytes-range-check", FINSET,
     "outside = table.translate(None, bytes(range(cod.size)))",
     'outside = b""', None),
    ("multisets-of-nothing", FUNCTORS,
     "if n else int(k == 0)", "if n else 0", None),
    ("power-exponent-zero", FUNCTORS,
     "** e.exponent if e.exponent else 1", "** e.exponent if e.exponent else 0", None),
    ("induce-fast-path", COLIMIT,
     "if isinstance(quotient, range) and self.apex.size == len(quotient):",
     "if isinstance(quotient, range):", None),
    ("induce-ill-defined", COLIMIT, "elif got != v:", "elif False:", None),
    ("diagram-triangle", COLIMIT, "if left != arrows[(k, i)]:", "if False:", None),
    ("diagram-self-arrow", COLIMIT, "if j == i:", "if False:", None),
    ("tower-stop", ITERATION,
     "if length is None and len(sizes) > 1 and sizes[-2] == size:",
     "if length is None and len(sizes) > 2 and sizes[-2] == size:", None),
    ("chain-map-bijection", ITERATION, "if not out.is_bijection():", "if False:", None),
    # the stage maps: connect is the one memoised kind, legs derive from it
    ("leg-skips-the-stage-map", ITERATION,
     """got = eval_functor_mor(
                    self.functor, (self.connect(j, b),), then=dst.legs[b]
                )""",
     "got = dst.legs[b]", None),
    ("connect-reads-legs-into-its-source", ITERATION,
     "lambda k: self.leg(k, n).table", "lambda k: self.leg(k, m).table", None),
    ("bound-is-the-last-basis-member", ITERATION,
     "for b in self.stages[i].diagram.indices:",
     "for b in reversed(self.stages[i].diagram.indices):", None),
    ("connect-reads-no-stage-maps", ITERATION,
     """return tuple(
            (m, self._bound(m, i)) for m in src.diagram.indices if m not in dst.legs
        )""",
     "return ()", None),
    ("fold-over-the-wrong-basis", ITERATION,
     "lambda idx: state.stages[idx].diagram.indices, done",
     "lambda idx: state.stages[idx].diagram.indices[:1], done", None),
    ("leg-cache-unread", ITERATION,
     "got = self._legs.get((j, i))", "got = None",
     "a leg rebuilt equals the cached one; the cache only saves the work"),
    # the carrier cap admits a stage of exactly MAX_CARRIER elements
    ("tower-cap-boundary", ITERATION,
     "if size > MAX_CARRIER:", "if size >= MAX_CARRIER:", None),
    ("stage-cap-boundary", ITERATION,
     "if out.size > MAX_CARRIER:", "if out.size >= MAX_CARRIER:", None),
    ("plump-lt", SIZE,
     "return i._height < j._height", "return i._height <= j._height", None),
    ("plump-render-successor", SIZE,
     "i.children[0] is i.children[1]", "i.children[0] is i.children[0]", None),
    # the tree table of a backend
    ("node-skips-its-lookup", SIZE,
     "tree = self._table.get(key)", "tree = None", None),
    ("node-keeps-the-children-as-given", SIZE,
     "key = (op, tuple(children))", "key = (op, children)", None),
    ("sampler-builds-outside-the-table", SIZE,
     "tree = known(key) or node(*key)",
     "tree = known(key) or PlumpBackend(self.base).node(*key)", None),
    ("sampler-without-its-own-lookup", SIZE,
     "tree = known(key) or node(*key)", "tree = node(*key)",
     "node looks the key up itself; the sampler's lookup only saves a call"),
    ("op-label-ignores-labels", SIGNATURE,
     "return self.labels[op]", "return str(op)", None),
    # speed only
    ("table-writer-chunk", CLI, "_CHUNK = 4096", "_CHUNK = 4095",
     "the piece length of the table writer changes only how it is cut"),
    ("digit-buffer-length", CLI,
     "* min(_CHUNK, len(table) - 1))", "* _CHUNK)",
     "a longer digit buffer is sliced to each piece's length"),
    ("product-rows-reuse-threshold", FINSET,
     "if len(values) > n:", "if len(values) > 2 * n:",
     "building rows per value or per entry gives the same rows"),
]

TIER1 = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
    # the list's own test reads the mutated copy, where the old text is gone
    "--deselect", "tests/test_mutants.py::test_every_mutant_edits_one_place",
]


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "no FAILED line; exit code only"


def main(argv) -> int:
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        sys.stderr.write(f"unknown mutants: {', '.join(sorted(unknown))}\n")
        return 1
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="muiter-mutants-") as scratch:
        root = Path(scratch)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(CHECKOUT / part, root / part, ignore=ignore)
        shutil.copy(CHECKOUT / "pyproject.toml", root)
        # no bytecode: a mutant of the same length and second as its
        # original must not be read from a stale .pyc
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        failed = False
        for name, path, old, new, reason in chosen:
            target = root / path
            original = target.read_text()
            if original.count(old) != 1:
                print(f"STALE     {name}: {old!r} is not once in {path}", flush=True)
                failed = True
                continue
            target.write_text(original.replace(old, new))
            try:
                run = subprocess.run(
                    TIER1, cwd=root, env=env, capture_output=True, text=True
                )
            finally:
                target.write_text(original)
            if run.returncode:
                print(f"KILLED    {name}  by {first_failure(run.stdout)}", flush=True)
            elif reason:
                print(f"SURVIVED  {name}  (equivalent: {reason})", flush=True)
            else:
                print(f"SURVIVED  {name}", flush=True)
                failed = True
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
