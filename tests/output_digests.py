"""Print one line per regression script and format: label, exit code, and the
sha256 of stdout and of stderr.

Usage: python tests/output_digests.py [ROOT]

The scripts are this checkout's: every script perfbench/workloads.py builds
at seeds 1-5, and GOLDEN, ALL_KINDS, DEMO and every PINNED_JSON script of
the tests.  Each runs as `python -m muiter --format text|json` on the
package under ROOT/src (default: this checkout), with the script on stdin.
Two checkouts give the same lines exactly when they give the same bytes and
exit codes, so a diff of two runs is the byte-identity check:

    python tests/output_digests.py /path/to/other > other.txt
    python tests/output_digests.py > this.txt
    diff other.txt this.txt

tests/output_digests.txt holds this checkout's lines, and
tests/test_output_digests.py builds the same lines in process, through
`cli.main`, and compares them with it.  A change that alters output on
purpose regenerates the file and names the labels whose lines changed:

    python tests/output_digests.py > tests/output_digests.txt
    git diff tests/output_digests.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(HERE), str(CHECKOUT / "perfbench")]

import workloads  # noqa: E402  (perfbench's, read only)
from test_acceptance import DEMO  # noqa: E402
from test_cli import ALL_KINDS, GOLDEN, PINNED_JSON  # noqa: E402

SEEDS = range(1, 6)
FORMATS = ("text", "json")


def scripts():
    """(label, script text) for every script, in a fixed order."""
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for script in workloads.build(name, seed):
                yield f"perfbench/{name}/{seed}/{script['label']}", script["text"]
    yield "GOLDEN", GOLDEN
    yield "ALL_KINDS", ALL_KINDS
    yield "DEMO", DEMO
    for name, (text, _, _) in PINNED_JSON.items():
        yield f"PINNED_JSON/{name}", text


def digest_line(label: str, fmt: str, code: int, out: bytes, err: bytes) -> str:
    out_sha = hashlib.sha256(out).hexdigest()
    err_sha = hashlib.sha256(err).hexdigest()
    return f"{label}:{fmt} {code} {out_sha} {err_sha}"


def main(argv) -> int:
    root = Path(argv[0] if argv else CHECKOUT).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for label, text in scripts():
        for fmt in FORMATS:
            run = subprocess.run(
                [sys.executable, "-m", "muiter", "--format", fmt],
                input=text.encode(), capture_output=True, env=env, cwd=root,
            )
            line = digest_line(label, fmt, run.returncode, run.stdout, run.stderr)
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
