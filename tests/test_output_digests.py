"""Byte identity as a test: every regression script of output_digests.py,
run in process through `cli.main`, gives the line committed in
output_digests.txt (exit code and sha256 of stdout and stderr)."""

import io
import sys
from pathlib import Path

from muiter import cli
from output_digests import FORMATS, digest_line, scripts

COMMITTED = Path(__file__).resolve().parent / "output_digests.txt"


def run_in_process(monkeypatch, text: str, fmt: str):
    """cli.main on text as stdin, as `muiter --format fmt` runs it: the exit
    code and the bytes written to stdout and stderr."""
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdin", stdin)
        patch.setattr(sys, "stdout", out)
        patch.setattr(sys, "stderr", err)
        code = cli.main(["--format", fmt])
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def test_every_regression_script_gives_its_committed_bytes(monkeypatch):
    got = [
        digest_line(label, fmt, *run_in_process(monkeypatch, text, fmt))
        for label, text in scripts()
        for fmt in FORMATS
    ]
    want = COMMITTED.read_text().splitlines()
    assert len(got) == len(want) == 210
    # one label per differing line, so a failure names what changed
    assert [g.split()[0] for g, w in zip(got, want) if g != w] == []
